import json
import os
import re

import numpy as np
import pytest

from parahom.coeffs import AsymmetricFieldError, preset, scale_field
from parahom.geometry import GraphDomain, LipschitzCylinder
from parahom.harness import (ConvergenceReport, ExperimentConfig, SweepReport,
                             _row, data_from_json, default_compact_subcylinder,
                             domain_from_json, emit_report,
                             homogenization_experiment,
                             local_solvability_at_scale, q_decay_constant,
                             solvability_sweep)
from parahom.potential import PotentialConfig


def _no_solve(*args):
    raise AssertionError("solved before the input was checked")


def _traced_peak(run):
    """Peak bytes traced by tracemalloc (numpy's buffers included) during
    a second call of run, after a warm first one."""
    import tracemalloc

    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _whole_field_ratio(A, dom, cube, grid, r):
    """The local-solvability field and ratio through a whole-grid
    solve_dirichlet with the mollified indicator of cube: the route before
    the march recorded a window, kept as a reference."""
    from parahom.geometry import ParabolicCube
    from parahom.pde import BoundaryData, solve_dirichlet
    from parahom.potential import (_cube_profiles, _fine_spacing,
                                   local_solvability_ratio)

    w_x, w_t = _fine_spacing(grid), grid.dt

    def indicator(pts, t):
        px, pt = _cube_profiles(cube, pts, t, w_x, w_t)
        return px * pt
    u = solve_dirichlet(A, dom, BoundaryData(indicator), grid)
    return u, local_solvability_ratio(u, ParabolicCube(np.zeros(1), 0.0, r))


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.d == 2
        assert cfg.required_resolution() == 128

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eps_list=(2.0,))

    def test_p_list_holds_one_exponent(self):
        assert ExperimentConfig(p_list=[3]).p_list == (3.0,)
        for bad in ((2.0, 3.0), (), (1.0,), (float("inf"),)):
            with pytest.raises(ValueError, match="p_list"):
                ExperimentConfig(p_list=bad)

    @pytest.mark.parametrize("name, bad", [("r_list", ()),
                                           ("r_list", (0.0,)),
                                           ("eps_list", ())])
    def test_lists_must_be_nonempty_and_positive(self, name, bad):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: bad})

    def test_eta_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eta"):
                ExperimentConfig(eta=bad)

    @pytest.mark.parametrize("name", ["resolution", "nt", "cell_resolution",
                                      "n"])
    @pytest.mark.parametrize("bad", [128.9, 2.0, "64", True, 0, -4])
    def test_counts_must_be_positive_ints(self, name, bad):
        # 128.9 ran 128 cells while the report echoed 128.9
        with pytest.raises(ValueError, match=name):
            ExperimentConfig.from_json({name: bad})

    def test_numpy_int_counts_accepted(self):
        cfg = ExperimentConfig(resolution=np.int64(64), nt=np.int32(32))
        assert (cfg.resolution, cfg.nt) == (64, 32)
        assert type(cfg.to_jsonable()["resolution"]) is int

    def test_from_json_refuses_unknown_keys(self):
        cfg = ExperimentConfig.from_json({"coeff": "trig", "resolution": 64})
        assert cfg.coeff == "trig"
        assert cfg.resolution == 64
        with pytest.raises(ValueError, match="'bogus'"):
            ExperimentConfig.from_json(
                {"coeff": "trig", "resolution": 64, "bogus": 1})

    def test_old_configs_with_dropped_knobs_load(self):
        # seed was read by no run, and a cells-per-period knob of 0 or less
        # turned the resolution floor off; both keys load and are ignored
        for old in ({"seed": 7}, {"min_cells_per_period": 0},
                    {"min_cells_per_period": -3},
                    {"min_cells_per_period": 2.5}):
            cfg = ExperimentConfig.from_json(old)
            assert cfg.required_resolution() == 128
            assert not set(old) & set(cfg.to_jsonable())

    def test_grid_is_capped(self, monkeypatch):
        import parahom.harness as harness

        monkeypatch.setattr(harness, "effective_matrix", _no_solve)
        monkeypatch.setattr(harness, "solve_dirichlet", _no_solve)
        with pytest.raises(ValueError, match="800 cells.*max_cells_per_axis"):
            homogenization_experiment(ExperimentConfig(resolution=800))

    def test_insufficient_resolution_refused(self):
        cfg = ExperimentConfig(resolution=32, eps_list=(0.0625,), nt=16)
        with pytest.raises(ValueError, match="128"):
            homogenization_experiment(cfg)


class TestSpecs:
    def test_domain_default_cylinder(self):
        dom = domain_from_json(None)
        assert isinstance(dom, LipschitzCylinder)

    def test_domain_halfspace(self):
        dom = domain_from_json({"kind": "halfspace"})
        assert isinstance(dom, GraphDomain)
        assert dom.m == 0.0

    def test_domain_graph_and_cylinder(self):
        dom = domain_from_json(
            {"kind": "graph", "m": 0.25, "box": [[-2, 2]],
             "phi": {"kind": "closed_form", "expr": "0.25*sin(x1)"}})
        assert isinstance(dom, GraphDomain)
        assert dom.phi_values(np.array([[0.3]]))[0] == \
            pytest.approx(0.25 * np.sin(0.3))
        cyl = domain_from_json({"kind": "cylinder",
                                "base_box": [[0, 1], [0, 2]], "T": 0.5})
        assert isinstance(cyl, LipschitzCylinder)
        assert cyl.base_box == ((0.0, 1.0), (0.0, 2.0))
        assert cyl.T == 0.5

    def test_data_bump_compatible(self):
        f = data_from_json(None)
        pts = np.array([[0.5, 0.0]])
        assert abs(f(pts, 0.0)[0]) == 0.0
        assert f(pts, 1.0)[0] > 0.5

    def test_data_expr_ramps_to_expression(self):
        f = data_from_json({"kind": "expr", "expr": "1 + x1 * x2",
                            "ramp": 0.1})
        pts = np.array([[0.5, 2.0], [-1.0, 3.0]])
        assert np.all(f(pts, 0.0) == 0.0)
        assert np.array_equal(f(pts, 10.0), 1.0 + pts[:, 0] * pts[:, 1])
        # tangential points of a graph domain carry x2 = 0
        assert np.array_equal(f(np.array([[0.5]]), 10.0), [1.0])

    @pytest.mark.parametrize("spec, key", [
        ({"ramp": 0.0}, "ramp"), ({"ramp": float("nan")}, "ramp"),
        ({"width": -0.5}, "width"), ({"width": float("inf")}, "width"),
        ({"kind": "expr", "expr": "1", "ramp": 0.0}, "ramp"),
        ({"kind": "expr", "expr": "1", "ramp": float("inf")}, "ramp")])
    def test_data_ramp_and_width_checked_at_load(self, spec, key):
        with pytest.raises(ValueError, match=key):
            data_from_json(spec)

    def test_compact_K(self):
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=1.0)
        box, t_min = default_compact_subcylinder(dom)
        assert t_min == pytest.approx(0.25)
        for lo, hi in box:
            assert 0.0 < lo < hi < 1.0


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(coeff="laminate", eps_list=(0.5, 0.25),
                           resolution=32, nt=32, cell_resolution=16)
    return homogenization_experiment(cfg)


class TestHomogenization:

    def test_rows_sorted_and_positive(self, small_report):
        eps = [r["eps"] for r in small_report.rows]
        assert eps == sorted(eps, reverse=True)
        assert all(r["distance"] >= 0 for r in small_report.rows)

    def test_one_field_alive_at_a_time(self):
        # the effective field dies once restricted to K and each eps field
        # with its row: the traced peak is one field plus the cone scan's
        # temporaries, 1.71 fields, against 3.54 with three alive
        cfg = ExperimentConfig(coeff="laminate", eps_list=(0.5, 0.25),
                               resolution=64, nt=64, cell_resolution=16)
        field = (cfg.nt + 1) * cfg.resolution ** 2 * 8
        peak = _traced_peak(lambda: homogenization_experiment(cfg))
        assert peak < 2.5 * field

    def test_constant_coefficients_collapse(self):
        cfg = ExperimentConfig(coeff="constant", eps_list=(0.5, 0.25),
                               resolution=32, nt=24, cell_resolution=16)
        rep = homogenization_experiment(cfg)
        for row in rep.rows:
            assert row["distance"] <= 1e-9

    def test_report_roundtrip(self, small_report, tmp_path):
        paths = emit_report(small_report, fmt="json", outdir=str(tmp_path),
                            name="conv")
        with open(paths[0]) as fh:
            loaded = json.load(fh)
        assert loaded == small_report.to_jsonable()

    def test_emit_deterministic_bytes(self, small_report, tmp_path):
        p1 = emit_report(small_report, "json", str(tmp_path), "a")[0]
        p2 = emit_report(small_report, "json", str(tmp_path), "b")[0]
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_csv_and_dat(self, small_report, tmp_path):
        paths = emit_report(small_report, "csv", str(tmp_path), "conv")
        assert any(p.endswith(".csv") for p in paths)
        assert any(p.endswith(".dat") for p in paths)
        with open(paths[0]) as fh:
            text = fh.read()
        assert "# config:" in text


class TestSweep:
    def test_small_sweep_passes_and_is_deterministic(self, tmp_path):
        cfg = ExperimentConfig(r_list=(0.5, 1.0))
        pot = PotentialConfig(cells_per_r=10, steps_per_r2=12)
        rep1 = solvability_sweep(cfg, pot)
        rep2 = solvability_sweep(cfg, pot)
        assert rep1.all_passed
        assert any(r["watermark"] for r in rep1.rows)
        p1 = emit_report(rep1, "json", str(tmp_path), "s1")[0]
        p2 = emit_report(rep2, "json", str(tmp_path), "s2")[0]
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_one_adjoint_march_per_pole_and_grid(self, monkeypatch):
        # the measure row and the kernel densities share one march of the
        # pole; every other diagnostic has a pole, grid or domain of its own
        import parahom.potential as potential

        march = potential.adjoint_trace
        keys = []

        def traced(A, dom, grid, probe):
            keys.append((A.label, id(dom), grid.t0, grid.t1, grid.nt,
                         *(f.tobytes() for f in grid.faces),
                         np.asarray(probe, dtype=float).tobytes()))
            return march(A, dom, grid, probe)

        monkeypatch.setattr(potential, "adjoint_trace", traced)
        rep = solvability_sweep(ExperimentConfig(r_list=(0.5,)),
                                PotentialConfig(cells_per_r=6,
                                                steps_per_r2=8))
        assert rep.all_passed
        assert len(set(keys)) == len(keys)
        assert len(keys) == 4

    def test_local_solvability_grid_is_capped(self):
        # r = 16 gives 896 x cells, above the cap of 768, so it fails
        # before any assembly
        with pytest.raises(ValueError, match="896 cells.*max_cells_per_axis"):
            local_solvability_at_scale(preset("trig", d=2), 16.0)

    def test_local_solvability_is_scale_free(self):
        # constant coefficients: h = r/8 and dt = r^2/12 scale by powers
        # of 2, which floating point does exactly, so the ratio is bitwise
        # equal across scales.  r = 4 is left out: h is capped at a quarter
        # of the field's period, 0.25 here
        A = preset("constant", d=2)
        ratios = {local_solvability_at_scale(A, r)
                  for r in (0.25, 0.5, 1.0, 2.0)}
        assert ratios == {0.02706129100420155}

    def test_local_solvability_scales_with_the_period(self):
        # A(x / 2) at scale 4 is A at scale 2: the h cap is a quarter of
        # the field's period, so it scales with the field too
        trig = preset("trig", d=2)
        assert local_solvability_at_scale(scale_field(trig, 2.0), 4.0) \
            == local_solvability_at_scale(trig, 2.0)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_local_solvability_march_stops_at_4r2(self, monkeypatch, r):
        # the march keeps the full grid's step and levels, bit for bit, up
        # to its first level at or past 4 r^2; no solve runs here
        import parahom.harness as harness

        grids = []

        def capped(grid):
            grids.append(grid)
            return grid

        def record(A, dom, cube, grid, cells):
            grids.extend((grid, cells))
            raise RuntimeError("recorded")

        monkeypatch.setattr(harness, "_capped", capped)
        monkeypatch.setattr(harness, "caloric_measure_field", record)
        with pytest.raises(RuntimeError, match="recorded"):
            local_solvability_at_scale(preset("trig", d=2), r)
        full, grid, (x_cells, lam_cells) = grids
        assert full.t1 == 16.5 * r * r
        assert (grid.lo, grid.hi, grid.shape) == (full.lo, full.hi,
                                                  full.shape)
        assert grid.dt == full.dt
        assert np.array_equal(grid.times(), full.times()[:grid.nt + 1])
        assert grid.times()[-1] >= 4 * r * r > grid.times()[-2]
        # the recorded box is runs of the full grid's cells, bit for bit:
        # |x| < 4 r, and lam cells up to 4 r
        assert x_cells.step is None and lam_cells.step is None
        xc = full.axis_centers(0)
        assert xc[x_cells].tobytes() == xc[np.abs(xc) < 4 * r].tobytes()
        assert lam_cells.start == 0
        lam_faces = full.faces[1][:lam_cells.stop + 1]
        assert lam_faces[-2] < 4 * r <= lam_faces[-1]

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    def test_windowed_march_matches_the_whole_field(self, monkeypatch, r):
        # the reference is the whole-grid route: solve_dirichlet with the
        # same mollified indicator data, every cell stored
        import parahom.harness as harness

        march = harness.caloric_measure_field
        seen = []

        def windowed(*args):
            seen.append(args)
            seen.append(march(*args))
            return seen[-1]

        monkeypatch.setattr(harness, "caloric_measure_field", windowed)
        ratio = local_solvability_at_scale(preset("trig", d=2), r)
        (A, dom, cube, grid, _), u = seen
        whole, whole_ratio = _whole_field_ratio(A, dom, cube, grid, r)
        assert ratio == whole_ratio
        x0 = int(np.searchsorted(grid.faces[0], u.grid.faces[0][0]))
        cells = (slice(None), slice(x0, x0 + u.grid.shape[0]),
                 slice(0, u.grid.shape[1]))
        assert u.values.tobytes() == whole.values[cells].tobytes()

    def test_windowed_trace_check_sees_the_4x_cube_edge(self, monkeypatch):
        # data moved inside the 4x cube, onto its outermost cell column
        # alone (centers 3.9375 and 3.8125 at r = 1, the ramp starts at
        # 3.8375), still fails the trace check
        import parahom.harness as harness
        from parahom.geometry import ParabolicCube

        march = harness.caloric_measure_field

        def moved(A, dom, cube, grid, cells):
            inside = ParabolicCube(np.asarray([4.4]), -8.0, 0.5)
            return march(A, dom, inside, grid, cells)

        monkeypatch.setattr(harness, "caloric_measure_field", moved)
        with pytest.raises(ValueError, match="does not vanish on the 4x"):
            local_solvability_at_scale(preset("trig", d=2), 1.0)

    def test_local_solvability_stores_its_window_alone(self,
                                                             monkeypatch):
        # the march stores the 4x-cube window, 0.38 of the whole field at
        # r = 1; with the solve and ratio temporaries the traced peak is
        # 0.52 of the field's bytes, and 1.19 when every cell is stored
        import parahom.harness as harness

        march = harness.caloric_measure_field
        grids = []

        def seen(A, dom, cube, grid, cells):
            grids.append(grid)
            return march(A, dom, cube, grid, cells)

        monkeypatch.setattr(harness, "caloric_measure_field", seen)
        A = preset("trig", d=2)
        peak = _traced_peak(lambda: local_solvability_at_scale(A, 1.0))
        grid = grids[-1]
        assert peak < 0.6 * (grid.nt + 1) * grid.ncells * 8

    def test_dat_columns_parse(self, tmp_path):
        # a missing error bar is nan and flags are 0/1, so columns line up
        rows = [_row("a", "c", "halfspace", {}, 0.5, 0.01, True),
                _row("b", "c", "halfspace", {}, 2.0, None, False, True)]
        rep = SweepReport(rows=rows, config={})
        dat = emit_report(rep, "json", str(tmp_path), "s")[-1]
        table = np.loadtxt(dat)
        with open(dat) as fh:
            assert fh.readline() == "# error_bar passed value watermark\n"
        assert table.shape == (2, 4)
        assert np.array_equal(table, [[0.01, 1, 0.5, 0], [np.nan, 0, 2.0, 1]],
                              equal_nan=True)

    def test_empty_report_valid(self, tmp_path):
        rep = SweepReport(rows=[], config={"note": "empty"})
        for fmt in ("json", "csv"):
            path = emit_report(rep, fmt, str(tmp_path), f"empty_{fmt}")[0]
            assert os.path.exists(path)
        with open(os.path.join(str(tmp_path), "empty_json.json")) as fh:
            loaded = json.load(fh)
        assert loaded["rows"] == []
        assert loaded["config"]["note"] == "empty"


class TestQDecay:
    def test_small_window(self):
        row = q_decay_constant(preset("trig", d=2), 8)
        assert row["constant"] > 0
        assert np.isfinite(row["sup_Q"])

    def test_grid_is_capped(self, monkeypatch):
        # R_cells = 200 gives 800 cells per axis, above the cap of 768
        import parahom.pde as pde

        monkeypatch.setattr(pde, "solve_impulse", _no_solve)
        with pytest.raises(ValueError, match="800 cells.*max_cells_per_axis"):
            q_decay_constant(preset("trig", d=2), 200)


class TestCli:
    def test_cell_command(self, tmp_path):
        from parahom.cli import main

        out = str(tmp_path / "Abar.json")
        rc = main(["cell", "--coeff", "laminate", "--resolution", "32",
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            data = json.load(fh)
        assert data["Abar"][0][0] == pytest.approx(1.6, rel=1e-6)
        assert data["Abar"][1][1] == pytest.approx(2.5, rel=1e-6)

    def test_cell_rejects_a_field_outside_its_lam(self, tmp_path,
                                                   monkeypatch):
        from parahom import cli

        monkeypatch.setattr(cli, "effective_matrix", _no_solve)
        out = tmp_path / "Abar.json"
        # values 4..6 against the default lam = 2
        with pytest.raises(ValueError, match=r"lam = 2: sampled eigenvalues "
                           r"span \[4, 6\]"):
            cli.main(["cell", "--coeff", '{"expr": "5+sin(2*pi*lam)", '
                      '"period": "lattice"}', "--out", str(out)])
        assert not out.exists()

    def test_solve_rejects_an_asymmetric_field(self, tmp_path, monkeypatch):
        from parahom import cli

        monkeypatch.setattr(cli, "solve_dirichlet", _no_solve)
        out = tmp_path / "u.bin"
        with pytest.raises(AsymmetricFieldError):
            cli.main(["solve", "--coeff",
                      '{"entries": [["2", "0.5"], ["0", "2"]]}',
                      "--grid", "16,8", "--nt", "8", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("flags, match", [
        (["--t1", "inf"], "must be finite"),
        (["--t1", "nan"], "must be finite"),
        (["--box", "[[-4, 4], [0, NaN]]"], "axis 1 has non-finite"),
    ], ids=["t1-inf", "t1-nan", "box-nan"])
    def test_solve_rejects_a_non_finite_grid(self, tmp_path, monkeypatch,
                                             flags, match):
        from parahom import cli

        monkeypatch.setattr(cli, "solve_dirichlet", _no_solve)
        out = tmp_path / "u.bin"
        with pytest.raises(ValueError, match=match):
            cli.main(["solve", "--coeff", "constant", "--grid", "8,4",
                      "--nt", "4", "--out", str(out)] + flags)
        assert not out.exists()

    def test_solve_and_maximal_commands(self, tmp_path):
        from parahom.cli import main

        field = str(tmp_path / "u.bin")
        rc = main(["solve", "--coeff", "constant",
                   "--domain", '{"kind": "halfspace", "box": [[-4, 4]]}',
                   "--grid", "32,16", "--box", "[[-4, 4], [0, 2]]",
                   "--t1", "0.5", "--nt", "16", "--out", field])
        assert rc == 0
        from parahom.pde import load_field

        u = load_field(field)
        assert u.grid.shape == (32, 16)
        with open(field + ".json") as fh:
            inputs = json.load(fh)
        assert inputs["cmd"] == "solve" and inputs["coeff"] == "constant"
        assert inputs["domain"] == '{"kind": "halfspace", "box": [[-4, 4]]}'
        assert inputs["grid"] == "32,16"
        assert inputs["box"] == "[[-4, 4], [0, 2]]"
        assert (inputs["t0"], inputs["t1"], inputs["nt"], inputs["d"]) \
            == (0.0, 0.5, 16, 2)
        assert inputs["data"] is None and inputs["out"] == field

        csv_out = str(tmp_path / "N.csv")
        rc = main(["maximal", "--coeff", "constant",
                   "--domain", '{"kind": "halfspace", "box": [[-4, 4]]}',
                   "--grid", "32,16", "--box", "[[-4, 4], [0, 2]]",
                   "--t1", "0.5", "--nt", "16", "--eta", "1.0",
                   "--out", csv_out])
        assert rc == 0
        with open(csv_out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x,t,N_value"
        assert len(lines) - 1 == (16 + 1) * 32
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]

    def test_maximal_command_in_three_dimensions(self, tmp_path):
        from parahom.cli import main

        out = str(tmp_path / "N3.csv")
        rc = main(["maximal", "--coeff", "constant", "--d", "3",
                   "--grid", "8,8,8", "--nt", "4", "--t1", "0.2",
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x1,x2,t,N_value"
        assert len(lines) - 1 == (4 + 1) * 64
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]

    def test_maximal_rejects_cylinder_before_solving(self, tmp_path,
                                                     monkeypatch):
        from parahom import cli

        monkeypatch.setattr(cli, "solve_dirichlet", _no_solve)
        out = tmp_path / "N.csv"
        with pytest.raises(SystemExit, match="parahom homogenize"):
            cli.main(["maximal", "--coeff", "constant", "--domain",
                      '{"kind": "cylinder", "base_box": [[0,1],[0,1]], '
                      '"T": 1.0}', "--grid", "8,8", "--box", "[[0,1],[0,1]]",
                      "--nt", "4", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("flags, match", [
        (["--p", "1.0"], "--p"),
        (["--eta", "0.4", "--domain",
          '{"kind": "graph", "m": 0.5, "box": [[-4, 4]], "phi": '
          '{"kind": "closed_form", "expr": "0.5*sin(x1)"}}'], "--eta"),
        (["--eta", "inf"], "--eta must be finite")])
    def test_maximal_checks_p_and_eta_before_solving(self, tmp_path,
                                                     monkeypatch, flags,
                                                     match):
        from parahom import cli

        monkeypatch.setattr(cli, "solve_dirichlet", _no_solve)
        out = tmp_path / "N.csv"
        with pytest.raises(SystemExit, match=match):
            cli.main(["maximal", "--coeff", "constant", "--grid", "8,8",
                      "--nt", "4", "--out", str(out)] + flags)
        assert not out.exists()

    def test_diagnose_command(self, tmp_path):
        from parahom.cli import main

        out = str(tmp_path / "diag.csv")
        rc = main(["diagnose", "--check", "caloric-measure",
                   "--coeff", "constant",
                   "--pole", "[0.0, 1.0, 5.0]", "--cube", "[0.0, 0.0, 0.5]",
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "check,value,error_bar,pass,watermark"
        assert lines[1].startswith("caloric-measure,")

    @pytest.mark.parametrize("check,rows", [
        ("doubling", ["doubling"]),
        ("rh", ["rh"]),
        ("green-sym", ["green-sym"]),
        ("green-measure", ["green-measure-lower", "green-measure-upper"])],
        ids=["doubling", "rh", "green-sym", "green-measure"])
    def test_diagnose_checks(self, tmp_path, check, rows):
        from parahom.cli import main

        out = tmp_path / "diag.csv"
        rc = main(["diagnose", "--check", check, "--coeff", "constant",
                   "--pole", "[0, 1, 5]", "--cube", "[0, 0, 0.5]",
                   "--out", str(out)])
        assert rc == 0
        header, *lines = out.read_text().splitlines()
        assert header == "check,value,error_bar,pass,watermark"
        table = [line.split(",") for line in lines]
        assert [row[0] for row in table] == rows
        for name, value, err, ok, watermark in table:
            assert np.isfinite(float(value))
            assert err == "" or np.isfinite(float(err))
            assert (ok, watermark) == ("1", "0")

    @pytest.mark.parametrize("flag,value,layout", [
        ("--pole", "[1, 5]", "[x..., lam, tau]"),
        ("--cube", "[0, 0.5]", "[x0..., t0, r]"),
        ("--pole", "[0, 0, 1, 5]", "[x..., lam, tau]")],
        ids=["short-pole", "short-cube", "long-pole"])
    def test_diagnose_rejects_missized_coordinates(self, tmp_path, flag,
                                                   value, layout):
        from parahom.cli import main

        args = {"--pole": "[0.0, 1.0, 5.0]", "--cube": "[0.0, 0.0, 0.5]"}
        args[flag] = value
        with pytest.raises(SystemExit,
                           match=re.escape(f"{flag} needs 3 numbers {layout}")):
            main(["diagnose", "--check", "caloric-measure",
                  "--coeff", "constant", "--pole", args["--pole"],
                  "--cube", args["--cube"],
                  "--out", str(tmp_path / "diag.csv")])

    def test_homogenize_command(self, tmp_path):
        from parahom.cli import main

        cfg = {"coeff": "laminate", "eps_list": [0.5, 0.25],
               "resolution": 32, "nt": 24, "cell_resolution": 16,
               "outdir": str(tmp_path)}
        rc = main(["homogenize", "--config", json.dumps(cfg),
                   "--name", "homog"])
        assert os.path.exists(os.path.join(str(tmp_path), "homog.json"))
        assert rc in (0, 1)   # monotonicity not asserted at toy resolution

    def test_homogenize_refuses_a_misspelt_key(self, monkeypatch):
        # "resolutoin" once ran silently at the default 128 cells
        import parahom.harness as harness
        from parahom.cli import main

        monkeypatch.setattr(harness, "effective_matrix", _no_solve)
        with pytest.raises(ValueError, match="'resolutoin'"):
            main(["homogenize", "--config", '{"resolutoin": 64}'])

    def test_config_from_file(self, tmp_path):
        from parahom.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"coeff": "laminate", "eps_list": [0.5], "resolution": 16,
             "nt": 8, "cell_resolution": 8, "outdir": str(tmp_path)}))
        rc = main(["homogenize", "--config", f"@{path}", "--name", "ff"])
        assert rc == 0
        with open(str(tmp_path / "ff.json")) as fh:
            rep = json.load(fh)
        assert rep["config"]["resolution"] == 16
        assert [r["eps"] for r in rep["rows"]] == [0.5]

    def test_sweep_command(self, tmp_path):
        from parahom.cli import main

        cfg = {"r_list": [0.5], "outdir": str(tmp_path),
               "diagnostics": ["harnack"]}       # a key old configs carry
        rc = main(["sweep", "--config", json.dumps(cfg), "--name", "sw"])
        assert rc == 0
        with open(os.path.join(str(tmp_path), "sw.json")) as fh:
            rep = json.load(fh)
        assert rep["kind"] == "sweep_report"
        assert "diagnostics" not in rep["config"]
        checks = [r["check"] for r in rep["rows"]]
        assert "caloric-measure-oracle" in checks
        assert checks.count("localsolv") == 1
        assert all(r["passed"] and "runtime" not in r for r in rep["rows"])
