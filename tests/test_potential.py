import warnings

import numpy as np
import pytest

from parahom import potential
from parahom.coeffs import preset, scale_field
from parahom.geometry import GraphDomain, ParabolicCube, ParabolicPoint
from parahom.oracles import (gauss_heat_kernel, halfspace_kernel_cell_average,
                             halfspace_measure)
from parahom.pde import (IncompatibleDataError, ScalarField, SpaceTimeGrid,
                         halfspace, solve_impulse)
from parahom.potential import (KernelEstimate, MeasureBelowNoiseError,
                               PotentialConfig, _green_grid, _measure_grid,
                               _PoleKernel, caloric_measure,
                               caloric_measure_field,
                               doubling_ratio, green_measure_equivalence,
                               green_symmetry_check, greens_function,
                               harnack_ratio, kernel_estimate,
                               local_solvability_ratio, reverse_holder_ratio)

A_CONST = preset("constant", d=2)
HALF = GraphDomain(m=0.0, box=((-64.0, 64.0),))
POLE = ParabolicPoint(np.array([0.0, 1.0]), 5.0)
CUBE = ParabolicCube(np.zeros(1), 0.0, 0.5)
CFG = PotentialConfig()


def sub_cube_volume(K):
    """|Q_i| of the n = 1 partition of K: side 2r / mx by 2r^2 / mt."""
    mt, mx = K.K.shape
    r = K.cube.side
    return (2 * r / mx) * (2 * r * r / mt)


def oracle_measure(pole, cube):
    return halfspace_measure(pole.X[:-1], pole.X[-1], pole.t,
                             cube.center_x, cube.center_t, cube.side)


class TestCaloricMeasure:
    def test_images_oracle(self):
        est = caloric_measure(A_CONST, HALF, POLE, CUBE, CFG)
        oracle = oracle_measure(POLE, CUBE)
        assert est.value == pytest.approx(oracle, rel=0.02)

    def test_full_boundary_gives_one(self):
        # data active on the whole accessible boundary: constants are caloric,
        # so omega -> 1 up to the truncation tails.  The hitting kernel has a
        # Cauchy tail in x (2 lam / (pi L)) and a lam/sqrt(pi T) tail in time;
        # the deficit must stay below their sum.
        big = ParabolicCube(np.zeros(1), -8.0, np.sqrt(12.0))
        pole = ParabolicPoint(np.array([0.0, 0.75]), 3.0)
        est = caloric_measure(A_CONST, HALF, pole, big, CFG)
        lam = pole.X[-1]
        tail_t = lam / np.sqrt(np.pi * (pole.t - (-20.0)))
        tail_x = 2 * lam / (np.pi * big.side)
        assert est.value <= 1.0 + 1e-9
        assert 1.0 - est.value <= tail_t + tail_x
        assert est.value >= 0.75

    def test_causality(self):
        cube = ParabolicCube(np.zeros(1), 10.0, 0.5)   # entirely after pole
        est = caloric_measure(A_CONST, HALF, POLE, cube, CFG)
        assert est.value == 0.0
        assert est.smoothing_error == 0.0

    def test_pole_clearance_enforced(self):
        shallow = ParabolicPoint(np.array([0.0, 0.001]), 5.0)
        with pytest.raises(ValueError, match="cells"):
            caloric_measure(A_CONST, HALF, shallow, CUBE, CFG)

    def test_grid_size_capped(self):
        # 300 cells per r puts about 900 cells on the cube's x segment
        with pytest.raises(ValueError, match="max_cells_per_axis = 768"):
            caloric_measure(A_CONST, HALF, POLE, CUBE,
                            PotentialConfig(cells_per_r=300.0))

    def test_monotone_in_cube(self):
        small = caloric_measure(A_CONST, HALF, POLE, CUBE, CFG).value
        large = caloric_measure(A_CONST, HALF, POLE, CUBE.scaled(1.5), CFG).value
        assert 0.0 <= small <= large <= 1.0 + 1e-9

    def test_truncation_check(self, monkeypatch):
        # doubling the truncation margin moves the measure by under 1%
        est = caloric_measure(A_CONST, HALF, POLE, CUBE, CFG)
        monkeypatch.setattr(potential, "_MARGIN_MULT", 8.0)
        wide = caloric_measure(A_CONST, HALF, POLE, CUBE, PotentialConfig())
        assert abs(wide.value - est.value) <= 0.01 * max(est.value, 1e-12)


class TestKernelEstimate:
    def test_images_oracle_and_invariants(self):
        K = kernel_estimate(A_CONST, HALF, POLE, CUBE, depth=2, cfg=CFG)
        # nonnegative densities, exact mass consistency
        assert np.all(K.K >= 0.0)
        assert abs(K.K.sum() * sub_cube_volume(K) - K.measure.value) <= 1e-10
        oracle = np.empty_like(K.K)
        sub_r = CUBE.side / K.K.shape[1]
        for i, tc in enumerate(K.centers_t):
            for j, xc in enumerate(K.centers_x[:, 0]):
                oracle[i, j] = halfspace_kernel_cell_average(
                    POLE.X[:-1], POLE.X[-1], POLE.t, [xc], tc, sub_r)
        rel = np.abs(K.K - oracle) / np.maximum(oracle, 1e-12)
        assert rel.max() <= 0.03

    def test_pointwise_density_formula(self):
        # the images density matches the cell averages as cells shrink
        v1 = halfspace_kernel_cell_average(POLE.X[:-1], POLE.X[-1], POLE.t,
                                           [0.1], 0.0, 0.01)
        # K(Z, tau; y, s) = lam / (tau - s) * Gamma((z - y, lam), tau - s)
        elapsed = POLE.t - 0.0
        v2 = POLE.X[-1] / elapsed * float(
            gauss_heat_kernel(POLE.X - np.array([0.1, 0.0]), elapsed))
        assert v1 == pytest.approx(v2, rel=1e-3)

    def test_error_bars_present(self):
        K = kernel_estimate(A_CONST, HALF, POLE, CUBE, depth=1, cfg=CFG)
        assert K.error_bar.shape == K.K.shape
        assert np.all(K.error_bar >= 0)

    @pytest.mark.parametrize("depth", [3, 4])
    def test_partition_masses_sum_to_cube(self, depth):
        # slabs and sub-cubes finer than the default grid: the grid is
        # refined so every tent spans a time step and a fine cell
        K = kernel_estimate(A_CONST, HALF, POLE, CUBE, depth=depth, cfg=CFG)
        assert K.K.shape == (4 ** depth, 2 ** depth)
        assert abs(K.K.sum() * sub_cube_volume(K) - K.measure.value) \
            <= 1e-12 * K.measure.value

    def test_time_profile_must_vanish(self):
        kern = _PoleKernel(np.ones((2, 3)), np.zeros((3, 1)),
                           np.array([0.0, 0.5, 1.0]), 0.1, 0.5)
        assert kern.mass(np.array([0.0, 1.0, 2.0]), np.ones(3)) == 9.0
        with pytest.raises(IncompatibleDataError):
            kern.mass(np.array([1.0, 1.0, 1.0]), np.ones(3))


class TestReverseHolder:
    def _synthetic(self, values):
        values = np.asarray(values, dtype=float)
        return KernelEstimate(POLE, CUBE, np.zeros((values.shape[1], 1)),
                              np.zeros(values.shape[0]), values,
                              np.zeros_like(values), float(values.sum()))

    def test_constant_kernel_is_equality_case(self):
        K = self._synthetic(np.full((4, 2), 3.0))
        assert reverse_holder_ratio(K, 2.0).ratio == pytest.approx(1.0)

    def test_ratio_at_least_one(self):
        rng = np.random.default_rng(0)
        K = self._synthetic(rng.uniform(0.1, 2.0, size=(8, 4)))
        assert reverse_holder_ratio(K, 2.0).ratio >= 1.0

    def test_oracle_configuration(self):
        K = kernel_estimate(A_CONST, HALF, POLE, CUBE, depth=2, cfg=CFG)
        rh = reverse_holder_ratio(K, 2.0)
        assert not rh.watermark
        oracle = np.empty_like(K.K)
        sub_r = CUBE.side / K.K.shape[1]
        for i, tc in enumerate(K.centers_t):
            for j, xc in enumerate(K.centers_x[:, 0]):
                oracle[i, j] = halfspace_kernel_cell_average(
                    POLE.X[:-1], POLE.X[-1], POLE.t, [xc], tc, sub_r)
        rh_oracle = float(np.mean(oracle ** 2) ** 0.5 / np.mean(oracle))
        assert rh.ratio == pytest.approx(rh_oracle, rel=0.05)

    def test_inadmissible_watermarked(self):
        near = ParabolicPoint(np.array([0.0, 1.0]), 0.6)   # tau - t0 < 4 r^2
        K = kernel_estimate(A_CONST, HALF, near, CUBE, depth=1, cfg=CFG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rh = reverse_holder_ratio(K, 2.0)
        assert rh.watermark

    def test_exponent_validated(self):
        K = self._synthetic(np.ones((2, 2)))
        for q in (1.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                reverse_holder_ratio(K, q)


class TestDoubling:
    def test_images_oracle(self):
        ratio = doubling_ratio(A_CONST, HALF, POLE, CUBE, CFG)
        oracle = oracle_measure(POLE, CUBE.scaled(2.0)) / \
            oracle_measure(POLE, CUBE)
        assert ratio == pytest.approx(oracle, rel=0.05)

    def test_at_least_one(self):
        assert doubling_ratio(preset("trig", d=2), HALF, POLE, CUBE,
                              CFG) >= 1.0

    def test_bounded_across_scales(self):
        pole = ParabolicPoint(np.array([0.0, 1.0]), 6.0)
        ratios = []
        for r in (0.5, 0.25, 0.125):
            cube = ParabolicCube(np.zeros(1), 0.0, r)
            ratios.append(doubling_ratio(preset("trig", d=2), HALF, pole,
                                         cube, CFG))
        assert max(ratios) <= 10.0 * min(ratios)   # uniform doubling constant

    def test_measure_grid_keeps_requested_step(self):
        # a long run behind a small cube still gets r^2 / steps_per_r2 steps
        grid = _measure_grid(ParabolicPoint([0, 1], 6.0),
                             ParabolicCube([0], 0.0, 0.25), PotentialConfig())
        assert grid.dt <= 0.25 ** 2 / 24

    def test_noise_floor_guard(self):
        far = ParabolicCube(np.array([55.0]), 0.0, 0.1)
        pole = ParabolicPoint(np.array([0.0, 1.0]), 5.0)
        with pytest.raises(MeasureBelowNoiseError):
            doubling_ratio(A_CONST, HALF, pole, far,
                           PotentialConfig(cells_per_r=8, steps_per_r2=8))


def test_measure_and_doubling_ratio_follow_the_scaling_law():
    # u(X, t) solves the problem of A iff u(sX, s^2 t) solves that of
    # A(x / s), and the measure and Green grids carry no absolute length:
    # scaling pole, cube, read point, every spacing and the field's period by
    # a power of 2 is exact in floating point, so the measure, the doubling
    # ratio, the depth-2 densities times r^{n+2} and s^d G repeat bit for bit
    for name in ("constant", "trig", "laminate"):
        values, densities = set(), []
        for s in (0.5, 1.0, 2.0):
            A = scale_field(preset(name, d=2), s)
            pole = ParabolicPoint(np.array([0.0, s]), 5.0 * s * s)
            cube = ParabolicCube(np.zeros(1), 0.0, 0.5 * s)
            G = greens_function(A, HALF, ParabolicPoint([0.0, s], 0.0),
                                ParabolicPoint([0.8 * s, 0.8 * s], 1.5 * s * s))
            values.add((caloric_measure(A, HALF, pole, cube).value,
                        doubling_ratio(A, HALF, pole, cube), s * s * G))
            densities.append(kernel_estimate(A, HALF, pole, cube).K
                             * (0.5 * s) ** 3)
        (measure, ratio, green), = values
        assert 0.0 < measure < 1.0 and ratio > 1.0 and green > 0.0, name
        assert all(np.array_equal(k, densities[0]) for k in densities), name


def green_field(pole, horizon, X):
    """The impulse field that `greens_function` reads, for a given horizon
    and read point X."""
    grid = _green_grid(pole, horizon, X)
    return solve_impulse(A_CONST, HALF, pole.X, grid)


class TestGreen:
    def test_free_space_agreement(self, monkeypatch):
        monkeypatch.setattr(potential, "_GREEN_STEPS", 384.0)
        pole = ParabolicPoint(np.array([0.0, 6.0]), 0.0)
        G = green_field(pole, 1.0, np.array([0.5, 6.5]))
        for probe, t in [((0.5, 6.5), 0.5), ((0.3, 5.8), 0.25),
                         ((0.0, 6.0), 0.7)]:
            val = G.value_at(np.array(probe), t)
            oracle = float(gauss_heat_kernel(np.array(probe) - pole.X, t))
            assert val == pytest.approx(oracle, rel=0.02)

    def test_boundary_trace_and_positivity(self):
        pole = ParabolicPoint(np.array([0.0, 1.0]), 0.0)
        assert green_field(pole, 2.0, pole.X).values.min() >= -1e-13
        for t in (-1.0, 0.0):
            read = greens_function(A_CONST, HALF, pole,
                                   ParabolicPoint(np.array([0.3, 0.3]), t))
            assert read == 0.0 and type(read) is float

    def test_reads_the_derived_field(self):
        # horizon 1.05 x the read's elapsed time, core over the pole and the
        # read point; a point before the pole reads 0
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        for pt in (ParabolicPoint(np.array([0.8, 0.8]), 1.5),
                   ParabolicPoint(np.array([-1.1, 0.5]), 0.7)):
            field = green_field(pole, (pt.t - pole.t) * 1.05, pt.X)
            assert greens_function(A_CONST, HALF, pole, pt) == \
                field.value_at(pt.X, pt.t)
        assert greens_function(A_CONST, HALF, pole, ParabolicPoint(
            np.array([0.3, 0.2]), -0.4)) == 0.0

    def test_read_point_shape_checked_before_any_solve(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("built a grid before the input was checked")

        monkeypatch.setattr(potential, "_green_grid", no_grid)
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        for X in ([0.8, 0.8, 7.0], [0.8]):
            point = ParabolicPoint(np.array(X), 1.5)
            with pytest.raises(ValueError, match=f"has {len(X)} coordinates; "
                               "the pole has 2"):
                greens_function(A_CONST, HALF, pole, point)
            with pytest.raises(ValueError, match=f"has {len(X)} coordinates"):
                green_symmetry_check(A_CONST, HALF, pole, point)

    def test_read_point_below_the_boundary_refused_before_any_grid(
            self, monkeypatch):
        # ((0.8, -0.3), 1.5) used to run a whole march before value_at
        # found it outside the grid
        from types import SimpleNamespace

        def no_grid(*args):
            raise AssertionError("built a grid before the input was checked")

        monkeypatch.setattr(potential, "_green_grid", no_grid)
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        for point in (ParabolicPoint(np.array([0.8, -0.3]), 1.5),
                      SimpleNamespace(X=np.array([np.nan, 0.8]), t=1.5),
                      SimpleNamespace(X=np.array([0.8, np.nan]), t=1.5)):
            with pytest.raises(ValueError, match="outside the half space"):
                greens_function(A_CONST, HALF, pole, point)

    def test_boxed_read_equals_the_whole_field(self):
        # the march stores the probe's box and the lam cells below it; the
        # read is the whole field's, bit for bit, on the bottom face, within
        # half a cell of it, on a cell face and on a cell center
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        t = 1.5
        grid = _green_grid(pole, (t - pole.t) * 1.05, np.array([0.8, 0.8]))
        fx, flam = grid.faces
        cx, clam = grid.axis_centers(0), grid.axis_centers(1)
        i = int(np.searchsorted(fx, 0.8))
        for X in ([0.8, 0.8], [0.8, 0.0], [0.8, 0.25 * flam[1]],
                  [fx[i], clam[3]], [cx[i], flam[5]], [cx[i], clam[4]],
                  [-0.6, 2.1]):
            X = np.array(X)
            field = green_field(pole, (t - pole.t) * 1.05, X)
            got = greens_function(A_CONST, HALF, pole, ParabolicPoint(X, t))
            assert got == field.value_at(X, t), X.tolist()

    def test_default_read_stores_the_probe_box(self):
        # the whole 97 x 65 x 47 impulse field is 2.4 MB; the read touches
        # 2 x 4 values, and its march peaked at 3.25 MB when it stored them
        import tracemalloc

        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        point = ParabolicPoint(np.array([0.8, 0.8]), 1.5)
        greens_function(A_CONST, HALF, pole, point)     # warm: imports
        tracemalloc.start()
        try:
            greens_function(A_CONST, HALF, pole, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75e6

    def test_halfspace_images_values(self, monkeypatch):
        monkeypatch.setattr(potential, "_GREEN_STEPS", 384.0)
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        G = green_field(pole, 2.0, np.array([0.8, 0.8]))
        val = G.value_at(np.array([0.8, 0.8]), 1.5)
        # G = Gamma(X - Z, t - tau) - Gamma(X - Z*, t - tau), Z* the mirror
        # image of the pole across lam = 0
        X, elapsed = np.array([0.8, 0.8]), 1.5 - pole.t
        oracle = float(gauss_heat_kernel(X - pole.X, elapsed)
                       - gauss_heat_kernel(X - pole.X * [1.0, -1.0], elapsed))
        assert val == pytest.approx(oracle, rel=0.02)

    def test_upper_bound_decay(self, monkeypatch):
        # G <= C / ||(X - Z, t - tau)||^{n+1}: the fitted constant is stable
        # under refinement, which pins the decay exponent empirically
        pole = ParabolicPoint(np.array([0.0, 4.0]), 0.0)

        def fitted_C(cells):
            monkeypatch.setattr(potential, "_GREEN_CELLS", cells)
            g = green_field(pole, 4.0, pole.X)
            pts = g.grid.centers()
            best = 0.0
            for frac in (0.3, 0.6, 0.9):
                t = pole.t + frac * 4.0
                vals = np.asarray(
                    [g.value_at(p, t) for p in pts[:: max(1, len(pts) // 400)]])
                sub = pts[:: max(1, len(pts) // 400)]
                from parahom.geometry import parabolic_norm
                dist = parabolic_norm(sub - pole.X, t - pole.t)
                ok = dist > 0.5
                best = max(best, float((vals[ok] * dist[ok] ** 2).max()))
            return best

        c1 = fitted_C(12.0)
        c2 = fitted_C(18.0)
        assert 0 < c1 and 0 < c2
        assert max(c1, c2) / min(c1, c2) <= 1.5

    def test_positivity_floor_region(self):
        # G(x, t, lam; x0, t0, r) >= c r^{-n-1} on the standard region
        r = 1.0
        pole = ParabolicPoint(np.array([0.0, r]), 0.0)
        G = green_field(pole, 12.0 * r * r, pole.X)
        rng = np.random.default_rng(3)
        worst = np.inf
        for _ in range(40):
            t = rng.uniform(2.0, 9.0) * r * r
            lam = rng.uniform(0.6 * r, np.sqrt(t) * 0.95)
            rad2 = t - lam * lam
            x = rng.uniform(-1, 1) * np.sqrt(max(rad2, 0.0))
            val = G.value_at(np.array([x, lam]), t)
            worst = min(worst, val * r ** 2)
        assert worst > 0.0


class TestGreenSymmetry:
    def test_identity_coefficients(self):
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        pt = ParabolicPoint(np.array([0.8, 0.8]), 1.5)
        dev = green_symmetry_check(A_CONST, HALF, pole, pt, shift=0.3)
        assert dev <= 0.02

    def test_zero_shift_spatial_symmetry(self):
        pole = ParabolicPoint(np.array([0.0, 1.5]), 0.0)
        pt = ParabolicPoint(np.array([-0.7, 1.0]), 1.2)
        dev = green_symmetry_check(A_CONST, HALF, pole, pt, shift=0.0)
        assert dev <= 0.02

    def test_laminate_pairs(self, monkeypatch):
        # the time-independence + symmetry prediction for variable A
        rng = np.random.default_rng(5)
        A = preset("laminate", d=2)
        monkeypatch.setattr(potential, "_GREEN_CELLS", 32.0)
        for _ in range(3):
            z = rng.uniform(-0.5, 0.5)
            pole = ParabolicPoint(np.array([z, rng.uniform(1.2, 1.8)]), 0.0)
            pt = ParabolicPoint(np.array([z + rng.uniform(0.4, 0.9),
                                          rng.uniform(0.7, 1.1)]),
                                rng.uniform(1.2, 1.8))
            dev = green_symmetry_check(A, HALF, pole, pt, shift=0.0)
            assert dev <= 0.03


class TestLocalSolvability:
    def _synthetic_linear(self, r=0.5, t_lo=-17.0, t_hi=17.0, nt=256):
        # t_lo and t_hi in units of r^2
        grid = halfspace(-4.0, 4.0, 4 * r + 0.5, t_lo * r * r, t_hi * r * r,
                         (128, 72), nt)
        lam = grid.axis_centers(1)
        vals = np.broadcast_to(lam, (grid.nt + 1,) + grid.shape).copy()
        nb = grid.shape[0]
        return ScalarField(grid, vals, np.zeros((grid.nt + 1, nb)))

    def test_linear_profile_closed_form(self):
        # u = lam: trace ratio is exactly 1, so the quantity reduces to
        # r^3 |Q_r| / int_{T_2r} lam^2, evaluated by independent quadrature
        r = 0.5
        u = self._synthetic_linear(r)
        ratio = local_solvability_ratio(u, ParabolicCube(np.zeros(1), 0.0, r))
        grid = u.grid
        xs = grid.axis_centers(0)
        lam = grid.axis_centers(1)
        times = grid.times()
        lhs = np.sum(np.abs(xs) < r) * grid.h[0] * \
            np.sum(np.abs(times) < r * r) * grid.dt
        sel_l = (lam > 0) & (lam < 2 * r)
        mass = np.sum(np.abs(xs) < 2 * r) * grid.h[0] * \
            np.sum(np.abs(times) < 4 * r * r) * grid.dt * \
            np.sum(lam[sel_l] ** 2) * grid.h[1]
        assert ratio == pytest.approx(lhs * r ** 3 / mass, rel=1e-10)
        # continuum value 3/64 up to cell-clipping bias at the cube edges
        assert ratio == pytest.approx(3.0 / 64.0, rel=0.05)

    def test_zero_field_guarded(self):
        u = self._synthetic_linear()
        z = ScalarField(u.grid, np.zeros_like(u.values), u.bottom_trace)
        assert local_solvability_ratio(
            z, ParabolicCube(np.zeros(1), 0.0, 0.5)) == 0.0

    @pytest.mark.parametrize("t_lo, t_hi", [(-17.0, 2.0), (-2.0, 17.0)])
    def test_time_levels_must_cover_t2r(self, t_lo, t_hi):
        # T_2r spans |t| < 4 r^2; a field cut short on either side would
        # lose part of the mass and give a wrong ratio
        u = self._synthetic_linear(0.5, t_lo, t_hi, 144)
        with pytest.raises(ValueError, match="do not cover T_2r"):
            local_solvability_ratio(u, ParabolicCube(np.zeros(1), 0.0, 0.5))

    def test_scalar_invariance(self):
        u = self._synthetic_linear()
        cube = ParabolicCube(np.zeros(1), 0.0, 0.5)
        r1 = local_solvability_ratio(u, cube)
        r2 = local_solvability_ratio(
            ScalarField(u.grid, 7.3 * u.values, u.bottom_trace), cube)
        assert abs(r1 - r2) <= 1e-13 * abs(r1)


def _measure_pair(r=0.5, nx=256, nt=520, seed_cubes=((3.0, 0.8), (-3.0, 0.8))):
    """Two caloric-measure fields of disjoint cubes, vanishing near 0."""
    dom = GraphDomain(m=0.0, box=((-8.0, 8.0),))
    grid = SpaceTimeGrid.uniform((-8.0, 0.0), (8.0, 6.0), (nx, 96), -4.70,
                                 16 * r * r, nt)
    out = []
    for cx, cr in seed_cubes:
        cube = ParabolicCube(np.asarray([cx]), -4.0, cr)
        out.append(caloric_measure_field(A_CONST, dom, cube, grid,
                                         (slice(None),) * grid.d))
    return out


class TestHarnack:
    def test_constant_field(self):
        grid = halfspace(-2.0, 2.0, 2.0, -4.0, 4.0, (32, 16), 32)
        u = ScalarField(grid, np.full((grid.nt + 1,) + grid.shape, 2.5))
        assert harnack_ratio(u, np.zeros(1), 0.0, 0.4) == pytest.approx(1.0)

    def test_gaussian_oracle(self):
        # u = free heat kernel with pole below the box; compare the grid
        # ratio against dense closed-form evaluation
        r = 0.5
        pole_X = np.array([0.0, -0.5])
        tau = -2.0
        grid = halfspace(-3.0, 3.0, 3.0, -6.0, 5.0, (192, 96), 600)
        pts = grid.centers()
        vals = np.empty((grid.nt + 1,) + grid.shape)
        for k, t in enumerate(grid.times()):
            vals[k] = gauss_heat_kernel(pts - pole_X, t - tau).reshape(
                grid.shape)
        u = ScalarField(grid, vals)
        ratio = harnack_ratio(u, np.zeros(1), 0.0, r)

        xs = np.linspace(-r, r, 201)
        ls = np.linspace(1e-4, r, 201)
        ts = np.linspace(-r * r, r * r, 161)
        XX, LL = np.meshgrid(xs, ls, indexing="ij")
        P = np.stack([XX, LL], axis=-1).reshape(-1, 2)
        sup = max(gauss_heat_kernel(P - pole_X, t - tau).max() for t in ts)
        base = float(gauss_heat_kernel(np.array([0.0, r]) - pole_X,
                                       2 * r * r - tau))
        assert ratio == pytest.approx(sup / base, rel=0.02)

    def test_ratio_bounded_over_data_family(self):
        u, v = _measure_pair()
        for w in (u, v):
            assert 1.0 <= harnack_ratio(w, np.zeros(1), 0.0, 0.5) <= 50.0

    def test_negativity_rejected(self):
        grid = halfspace(-2.0, 2.0, 2.0, -4.0, 4.0, (16, 8), 16)
        u = ScalarField(grid, np.full((grid.nt + 1,) + grid.shape, -1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            harnack_ratio(u, np.zeros(1), 0.0, 0.4)

    def test_scalar_invariance(self):
        u, _ = _measure_pair(nx=128, nt=260)
        r1 = harnack_ratio(u, np.zeros(1), 0.0, 0.5)
        r2 = harnack_ratio(ScalarField(u.grid, 3.7 * u.values, u.bottom_trace),
                           np.zeros(1), 0.0, 0.5)
        assert abs(r1 - r2) <= 1e-13 * r1


class TestGreenMeasure:
    def test_sandwich_and_scaling_invariance(self):
        obs = ParabolicPoint(np.array([0.2, 0.7]), 2.0)
        res = green_measure_equivalence(A_CONST, HALF, obs, np.zeros(1),
                                        0.0, 0.5)
        assert not res.watermark
        assert 0.1 <= res.lower_ratio <= 10.0
        assert 0.1 <= res.upper_ratio <= 10.0

        g = 2.0     # parabolic rescale of the whole configuration
        obs2 = ParabolicPoint(np.array([g * 0.2, g * 0.7]), g * g * 2.0)
        res2 = green_measure_equivalence(A_CONST, HALF, obs2, np.zeros(1),
                                         0.0, g * 0.5)
        assert res2.lower_ratio == pytest.approx(res.lower_ratio, rel=0.05)
        assert res2.upper_ratio == pytest.approx(res.upper_ratio, rel=0.05)

    def test_pole_order_checked_before_any_solve(self, monkeypatch):
        # the observation time 0.2 precedes the shifted pole at 0.25
        def no_solve(*args):
            raise AssertionError("solved before the input was checked")

        monkeypatch.setattr(potential, "adjoint_trace", no_solve)
        obs = ParabolicPoint(np.array([0.2, 0.7]), 0.2)
        with pytest.raises(ValueError, match="precedes"):
            green_measure_equivalence(A_CONST, HALF, obs, np.zeros(1),
                                      0.0, 0.5)

    def test_inadmissible_watermark(self):
        obs = ParabolicPoint(np.array([5.0, 0.7]), 2.0)   # violates region
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = green_measure_equivalence(A_CONST, HALF, obs, np.zeros(1),
                                            0.0, 0.5)
        assert res.watermark


class TestRefinementStability:
    def test_key_ratios_stable_under_refinement(self):
        coarse = PotentialConfig(cells_per_r=10, steps_per_r2=16)
        fine = PotentialConfig(cells_per_r=20, steps_per_r2=32)
        for name in ("constant", "trig"):
            A = preset(name, d=2)
            d1 = doubling_ratio(A, HALF, POLE, CUBE, coarse)
            d2 = doubling_ratio(A, HALF, POLE, CUBE, fine)
            assert max(d1, d2) / min(d1, d2) <= 2.0
            K1 = kernel_estimate(A, HALF, POLE, CUBE, depth=1, cfg=coarse)
            K2 = kernel_estimate(A, HALF, POLE, CUBE, depth=1, cfg=fine)
            r1 = reverse_holder_ratio(K1).ratio
            r2 = reverse_holder_ratio(K2).ratio
            assert max(r1, r2) / min(r1, r2) <= 2.0
