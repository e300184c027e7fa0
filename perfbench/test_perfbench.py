"""Tests of the benchmark itself, on reduced workload configurations.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from parahom.coeffs import preset  # noqa: E402
from tracer import Patch, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each workload at its reduced configuration."""
    return {name: [run.measure(name, 0, 0, 1, small=True) for _ in range(2)]
            for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, traced):
    result, _ = run.measure(name, 0, 0, 0, small=True)
    lines = {"end_to_end": result, "per_layer": traced[name][0][0]}
    for kind, line in lines.items():
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert result["metrics"]["checks_passed"]["value"] == 1.0
    assert result["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_account_for_traced_wall(name, traced):
    _, record = traced[name][0]
    layers = record["layers"]
    own = sum(v for k, v in layers.items()
              if k.endswith(".self_s") or k in instrument.OWN_METRIC.values())
    wall = record["traced_wall_s"]
    assert own + layers["unattributed_s"] == pytest.approx(wall, rel=1e-6)
    assert layers["unattributed_s"] < 0.05 * wall


@pytest.mark.parametrize("name", NAMES)
def test_digest_is_stable_across_runs(name, traced):
    (_, a), (_, b) = traced[name]
    assert a["digest"]["results_sha256"] == b["digest"]["results_sha256"]
    assert a["digest"]["counts"] == b["digest"]["counts"]
    assert a["checks"]["digest_repeats"] == [1, 1]


def test_counts_name_the_busy_layer(traced):
    counts = {name: traced[name][0][1]["digest"]["counts"] for name in NAMES}
    assert counts["homogenize"]["maximal.filter_calls"] > 0
    assert counts["sweep"]["maximal.filter_calls"] == 0
    assert counts["sweep"]["pde.rhs_cols"] > counts["homogenize"]["pde.rhs_cols"]
    assert counts["cell"]["pde.fill_nnz"] == 0
    assert counts["cell"]["cell.pcg_iters"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_seeded_inputs_keep_the_checks(name):
    for seed in (0, 3):
        case = workloads.WORKLOADS[name](seed, small=True)
        with Patch() as patch:
            case.bind(patch)
            outcome = case.run(str(run.OUT / "test-report"))
        assert all(case.checks(case.results(outcome)).values()), seed


def test_seed_zero_is_the_default_run():
    X = np.random.default_rng(1).uniform(0.0, 1.0, (64, 2))
    assert workloads.Sweep(0).shift == 0.0
    for case, name in ((workloads.Homogenize(0), "laminate"),
                       (workloads.Cell(0), "checker")):
        assert np.array_equal(case.field(X), preset(name)(X))
    assert not np.array_equal(workloads.Cell(1).field(X), preset("checker")(X))


def test_self_time_excludes_children():
    t = Tracer("t")
    inner = t.wrap("b", lambda: sum(range(10000)))
    outer = t.wrap("a", lambda: [inner() for _ in range(3)])
    outer()
    incl, own, calls = t.totals()
    assert calls == {"a": 1, "b": 3}
    assert own["a"] == pytest.approx(incl["a"] - incl["b"])
    assert [s[3] for s in t.spans] == [-1, 0, 0, 0]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "cell", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
