"""parahom benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {homogenize,sweep,cell} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree.  The package is imported from ./src.
BLAS and OpenMP are pinned to one thread for this process and its children.

A run measures set-up in fresh interpreters (--trace 0 only), then runs a
reduced configuration of the workload twice as warm-up, then runs the
workload in a closed loop for --seconds (always at least once).  With --trace 1 one more run follows with every layer traced.  The
last line of standard output is the JSON result; a record with the
samples, the digests and the environment is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_parahom():
    """Import parahom from ./src of this tree, never from elsewhere."""
    if not (SRC / "parahom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no parahom sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import parahom
    if Path(parahom.__file__).resolve().parent != SRC / "parahom":
        raise SystemExit(f"perfbench: parahom imported from {parahom.__file__}")


def measure_setup(workload: str, seed: int) -> list:
    """Seconds to import parahom and build the inputs, per fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(numpy), "openblas_scipy": blas(scipy),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Run:
    """Runs of one workload at one seed, with their checks and digests."""

    def __init__(self, workload: str, seed: int, outdir: Path,
                 small: bool = False):
        import workloads
        self.wl = workloads
        self.name, self.seed, self.outdir = workload, seed, str(outdir)
        self.small = small         # reduced configuration for the full runs
        self.first = None          # results of the first full run
        self.attempted = 0
        self.failed = 0
        self.checks = {}           # check name -> [passed, evaluated]
        self.digests = []          # digest of each full-size run
        self.ref_errors = []

    def _check(self, name: str, ok: bool) -> bool:
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += bool(ok)
        entry[1] += 1
        return bool(ok)

    def _tally(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def once(self, case, tracer=None):
        """One timed run of `case`, traced into `tracer` when one is given.

        Returns (seconds, results, error, ok); results and error are None
        when the run or its checking raised."""
        from tracer import Patch
        with Patch() as patch:
            case.bind(patch)
            if tracer is not None:
                import instrument
                instrument.instrument(tracer, patch)
                root = tracer.open(instrument.ROOT)
            t0 = time.perf_counter()
            try:
                outcome = case.run(self.outdir)
            except Exception:
                traceback.print_exc()
                outcome = None
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
        res = err = None
        verdicts = {}
        if outcome is not None:
            try:
                res = case.results(outcome)
                verdicts = case.checks(res)
                err = max(case.ref_rel_err(res), self.wl.ERROR_FLOOR)
            except Exception:
                traceback.print_exc()
                res = err = None
        ok = self._check("run_completes", res is not None)
        for name, passed in verdicts.items():
            ok &= self._check(name, passed)
        return seconds, res, err, ok

    def warm_up(self):
        """Reduced configuration twice: warms caches, checks determinism."""
        case = self.wl.WORKLOADS[self.name](self.seed, small=True)
        _, a, _, ok = self.once(case)
        self._tally(ok)
        _, b, _, ok = self.once(case)
        if a is not None and b is not None:
            ok &= self._check("warmup_digest_repeats",
                              self.wl.digest(a) == self.wl.digest(b))
        self._tally(ok)

    def full(self, tracer=None) -> float:
        """One full-size run; returns its seconds."""
        case = self.wl.WORKLOADS[self.name](self.seed, self.small)
        seconds, res, err, ok = self.once(case, tracer)
        if res is not None:
            self.first = self.first or res
            d = self.wl.digest(res)
            if self.digests:
                ok &= self._check("digest_repeats", d == self.digests[0])
            self.digests.append(d)
            self.ref_errors.append(err)
        self._tally(ok)
        return seconds

    def loop(self, seconds: float):
        """Closed loop of full runs; a run starts only if one more of median
        length still ends within `seconds`.  At least one run is made."""
        samples = []
        rss = None
        start = time.perf_counter()
        while True:
            samples.append(self.full())
            if rss is None:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(samples) > seconds:
                return samples, rss

    @property
    def checks_passed(self) -> float:
        passed = sum(p for p, _ in self.checks.values())
        total = sum(n for _, n in self.checks.values())
        return passed / total


# counts that must repeat exactly between traced runs of the same code
DIGEST_COUNTS = ("cell.pcg_iters", "pde.fill_nnz", "pde.rhs_cols",
                 "maximal.filter_calls")


def measure(workload: str, seed: int, seconds: float, trace: int,
            small: bool = False):
    """One benchmark run; returns (result line dict, record dict)."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-small" if small else "")
    setup = [] if trace else measure_setup(workload, seed)

    run = Run(workload, seed, OUT / f"report-{tag}", small)
    run.warm_up()
    samples, rss = run.loop(seconds)
    wall = statistics.median(samples)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "wall_samples_s": samples, "setup_samples_s": setup}

    if trace:
        import instrument
        from tracer import Tracer
        tracer = Tracer(f"{tag}-{os.getpid()}")
        run.full(tracer)
        _, start, end, _ = tracer.spans[0]        # the root span
        traced_s = end - start
        values = instrument.layer_metrics(tracer)
        values["trace.overhead_s"] = traced_s - wall
        spans_path = OUT / f"{tag}.spans.jsonl"
        tracer.write(str(spans_path))
        record.update(traced_wall_s=traced_s, layers=values,
                      spans=spans_path.name)
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss,
                  "checks_passed": run.checks_passed,
                  "ref_rel_err": max(run.ref_errors, default=1.0)}
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}

    record.update(checks=run.checks, metrics=metrics, digest={
        "results_sha256": run.digests[0] if run.digests else None,
        "results": run.first,
        "counts": {k: values[k] for k in DIGEST_COUNTS} if trace else None,
        "environment": environment()})
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("homogenize", "sweep", "cell"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_threads()
    import_parahom()
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    samples = record["wall_samples_s"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"wall_s median={statistics.median(samples):.4f} "
          f"max={max(samples):.4f} n={len(samples)} "
          f"digest={record['digest']['results_sha256']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
