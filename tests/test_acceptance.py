"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; failures carry the
measured numbers.  Budgets are wall-clock on a single desk-scale core.
"""

import time

import numpy as np
import pytest

from parahom.cell import effective_matrix
from parahom.coeffs import constant_matrix_field, preset
from parahom.geometry import (GraphDomain, ParabolicCube, ParabolicPoint,
                              parabolic_norm)
from parahom.harness import (ExperimentConfig, local_solvability_at_scale,
                             emit_report, homogenization_experiment,
                             q_decay_constant, solvability_sweep)
from parahom.oracles import (gauss_heat_kernel, halfspace_kernel_cell_average,
                             halfspace_measure)
from parahom.pde import BoundaryData, ScalarField, halfspace, solve_dirichlet
from parahom.potential import (PotentialConfig, caloric_measure,
                               doubling_ratio, green_symmetry_check,
                               harnack_ratio, kernel_estimate)

HALF = GraphDomain(m=0.0, box=((-64.0, 64.0),))


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}]: PASS  ({detail})")


def _read(u, pts):
    """u.value_at at each row (t, X) of pts."""
    return np.array([u.value_at(p[1:], p[0]) for p in pts])


def test_criterion_1_effective_matrix_oracle():
    t0 = time.perf_counter()
    em = effective_matrix(preset("laminate", d=2), 256)
    a11, a22 = em.Abar[0, 0], em.Abar[1, 1]
    assert abs(a11 - 1.6) <= 0.005 * 1.6
    assert abs(a22 - 2.5) <= 0.005 * 2.5

    M = np.array([[2.0, 0.5], [0.5, 1.5]])
    em_c = effective_matrix(constant_matrix_field(M), 64)
    assert np.abs(em_c.Abar - M).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, "effective-matrix oracle",
            f"A11={a11:.6f}, A22={a22:.6f}, constant dev="
            f"{np.abs(em_c.Abar - M).max():.1e}, {elapsed:.1f}s")


def test_criterion_2_heat_kernel_oracle_suite():
    t0 = time.perf_counter()
    A = preset("constant", d=2)
    cfg = PotentialConfig()
    pole = ParabolicPoint(np.array([0.0, 1.0]), 5.0)
    cube = ParabolicCube(np.zeros(1), 0.0, 0.5)
    devs = {}

    est = caloric_measure(A, HALF, pole, cube, cfg)
    oracle = halfspace_measure(pole.X[:-1], pole.X[-1], pole.t,
                               cube.center_x, cube.center_t, cube.side)
    devs["caloric_measure"] = abs(est.value - oracle) / oracle

    K = kernel_estimate(A, HALF, pole, cube, depth=2, cfg=cfg)
    K_or = np.empty_like(K.K)
    for i, tc in enumerate(K.centers_t):
        for j, xc in enumerate(K.centers_x[:, 0]):
            K_or[i, j] = halfspace_kernel_cell_average(
                pole.X[:-1], pole.X[-1], pole.t, [xc], tc,
                cube.side / K.K.shape[1])
    devs["kernel_estimate"] = float(
        (np.abs(K.K - K_or) / np.maximum(K_or, 1e-12)).max())

    dres = doubling_ratio(A, HALF, pole, cube, cfg)
    o2 = halfspace_measure(pole.X[:-1], pole.X[-1], pole.t,
                           cube.center_x, cube.center_t, 2 * cube.side)
    devs["doubling_ratio"] = abs(dres - o2 / oracle) / (o2 / oracle)

    # harnack against the closed-form Gaussian with pole below the box
    r = 0.5
    pole_X = np.array([0.0, -0.5])
    tau = -2.0
    grid = halfspace(-3.0, 3.0, 3.0, -6.0, 5.0, (192, 96), 600)
    pts = grid.centers()
    vals = np.empty((grid.nt + 1,) + grid.shape)
    for k, t in enumerate(grid.times()):
        vals[k] = gauss_heat_kernel(pts - pole_X, t - tau).reshape(grid.shape)
    hres = harnack_ratio(ScalarField(grid, vals), np.zeros(1), 0.0, r)
    xs = np.linspace(-r, r, 201)
    ls = np.linspace(1e-4, r, 201)
    P = np.stack(np.meshgrid(xs, ls, indexing="ij"), axis=-1).reshape(-1, 2)
    sup = max(gauss_heat_kernel(P - pole_X, t - tau).max()
              for t in np.linspace(-r * r, r * r, 161))
    base = float(gauss_heat_kernel(np.array([0.0, r]) - pole_X,
                                   2 * r * r - tau))
    devs["harnack_ratio"] = abs(hres - sup / base) / (sup / base)

    gs = green_symmetry_check(A, HALF, ParabolicPoint(np.array([0.0, 1.5]), 0.0),
                              ParabolicPoint(np.array([0.8, 0.8]), 1.5),
                              shift=0.3)
    devs["green_symmetry"] = gs

    elapsed = time.perf_counter() - t0
    for name, dev in devs.items():
        assert dev <= 0.05, f"{name} deviates {dev:.3f} from the oracle"
    assert elapsed < 300.0
    _report(2, "heat-kernel oracle suite",
            ", ".join(f"{k}={v:.4f}" for k, v in devs.items())
            + f", {elapsed:.0f}s")


def test_criterion_3_local_solvability_uniform_across_scales():
    A = preset("trig", d=2)
    ratios = {}
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        ratios[r] = local_solvability_at_scale(A, r)
    spread = max(ratios.values()) / min(ratios.values())
    assert spread <= 2.0
    _report(3, "local solvability r-uniformity",
            "ratios=" + ", ".join(f"{r}:{v:.4f}" for r, v in ratios.items())
            + f", spread={spread:.2f}")


def test_criterion_4_homogenization_limit():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(coeff="laminate", resolution=128, nt=192,
                           cell_resolution=128)
    rep = homogenization_experiment(cfg)
    dists = [row["distance"] for row in rep.rows]
    last3 = dists[-3:]
    assert last3[0] > last3[1] > last3[2], f"distances {dists}"
    assert rep.monotone_verdict
    ratios = [row["nt_ratio"] for row in rep.rows]
    assert max(ratios) / min(ratios) <= 1.25, f"N-ratio band {ratios}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(4, "homogenization limit",
            "dist=" + "/".join(f"{d:.4f}" for d in dists)
            + f", N-band={max(ratios)/min(ratios):.3f}, {elapsed:.0f}s")


def test_criterion_5_geometry_properties_randomized():
    rng = np.random.default_rng(2026)
    n_cases = 100_000

    X = rng.normal(size=(n_cases, 2)) * 10 ** rng.uniform(-2, 2, (n_cases, 1))
    t = rng.normal(size=n_cases) * 10 ** rng.uniform(-2, 2, n_cases)
    gamma = 10 ** rng.uniform(-2, 1, n_cases)

    rho = parabolic_norm(X, t)
    scaled = parabolic_norm(gamma[:, None] * X, gamma ** 2 * t)
    fail_scale = int(np.sum(np.abs(scaled - gamma * rho) > 1e-12 * gamma * rho))

    res = t ** 2 / rho ** 4 + np.sum(X * X, axis=1) / rho ** 2
    fail_root = int(np.sum(np.abs(res - 1.0) > 1e-12))

    Y = rng.normal(size=(n_cases, 2)) * 10 ** rng.uniform(-2, 2, (n_cases, 1))
    s = rng.normal(size=n_cases) * 10 ** rng.uniform(-2, 2, n_cases)
    d_pq = parabolic_norm(X - Y, t - s)
    d_qr = parabolic_norm(Y, s)
    d_pr = parabolic_norm(X, t)
    fail_tri = int(np.sum(d_pr > 2.0 * (d_pq + d_qr) + 1e-12))

    lam = rng.uniform(0.0, 3.0, n_cases)
    eta1 = rng.uniform(0.1, 3.0, n_cases)
    eta2 = eta1 + rng.uniform(0.0, 3.0, n_cases)
    inside1 = parabolic_norm(X, t) < eta1 * lam
    inside2 = parabolic_norm(X, t) < eta2 * lam
    fail_cone = int(np.sum(inside1 & ~inside2))

    for name, fails in (("scaling", fail_scale), ("root", fail_root),
                        ("quasi-triangle", fail_tri), ("cone", fail_cone)):
        assert fails == 0, f"{name}: {fails} failures out of {n_cases}"
    _report(5, "geometry properties",
            f"{n_cases} cases x 4 properties, zero failures")


def test_criterion_6_solver_contracts():
    rng = np.random.default_rng(11)
    grid = halfspace(-4.0, 4.0, 2.0, 0.0, 1.0, (48, 16), 32)
    worst_low, worst_high = 0.0, 0.0
    for trial in range(50):
        A = preset(("constant", "laminate", "trig")[trial % 3], d=2)
        c = (rng.uniform(0.2, 2.0), rng.uniform(-2, 2), rng.uniform(0.2, 1.0))

        def ev(pts, t, c=c):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            gt = 1.0 - np.exp(-(max(t, 0.0) / 0.15) ** 2)
            return c[0] * gt * np.exp(-(pts[:, 0] - c[1]) ** 2 / c[2])

        u = solve_dirichlet(A, HALF, BoundaryData(ev), grid)
        fmax = u.bottom_trace.max()
        worst_low = max(worst_low, -float(u.values.min()) / max(fmax, 1e-30))
        worst_high = max(worst_high,
                         (float(u.values.max()) - fmax) / max(fmax, 1e-30))
    assert worst_low <= 1e-12
    assert worst_high <= 1e-12

    # linearity
    A = preset("laminate", d=2)

    def bump(width, center):
        def ev(pts, t):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            gt = 1.0 - np.exp(-(max(t, 0.0) / 0.15) ** 2)
            return gt * np.exp(-(pts[:, 0] - center) ** 2 / width ** 2)
        return BoundaryData(ev)

    f, g = bump(0.5, 0.0), bump(0.3, 0.8)
    u_f = solve_dirichlet(A, HALF, f, grid)
    u_g = solve_dirichlet(A, HALF, g, grid)
    combo = BoundaryData(lambda pts, t: 2.0 * f(pts, t) - 0.5 * g(pts, t))
    u_c = solve_dirichlet(A, HALF, combo, grid)
    lin_dev = float(np.abs(u_c.values - 2 * u_f.values + 0.5 * u_g.values).max())
    assert lin_dev <= 1e-10 * np.abs(u_c.values).max()

    # self-convergence on smooth inputs
    A2 = preset("trig2d", d=2)
    dom = GraphDomain(m=0.0, box=((-2.0, 2.0),))

    def solve_at(n):
        from parahom.pde import SpaceTimeGrid

        gr = SpaceTimeGrid.uniform((-2.0, 0.0), (2.0, 2.0), (n, n // 2),
                                    0.0, 1.0, n)
        return solve_dirichlet(A2, dom, bump(0.5, 0.0), gr)

    u1, u2, u3 = solve_at(32), solve_at(64), solve_at(128)
    probes = np.stack(np.meshgrid(np.linspace(0.2, 0.9, 7),
                                  np.linspace(-1.2, 1.2, 9),
                                  np.linspace(0.2, 1.5, 7),
                                  indexing="ij"), axis=-1).reshape(-1, 3)
    d12 = np.abs(_read(u1, probes) - _read(u2, probes)).max()
    d23 = np.abs(_read(u2, probes) - _read(u3, probes)).max()
    factor = float(d12 / d23)
    assert factor >= 1.7
    _report(6, "solver contracts",
            f"DMP slack=({worst_low:.1e},{worst_high:.1e}), "
            f"linearity={lin_dev:.1e}, convergence factor={factor:.2f}")


def test_criterion_7_q_difference_decay():
    spreads = {}
    for name in ("trig", "laminate"):
        A = preset(name, d=2)
        consts = [q_decay_constant(A, R)["constant"] for R in (8, 16, 32)]
        spreads[name] = max(consts) / min(consts)
        assert spreads[name] <= 2.0, f"{name}: constants {consts}"
    _report(7, "Q-difference decay",
            ", ".join(f"{k} spread={v:.2f}" for k, v in spreads.items()))


def test_criterion_8_byte_determinism(tmp_path):
    cfg = ExperimentConfig(r_list=(0.5, 1.0))
    pot = PotentialConfig(cells_per_r=10, steps_per_r2=12)
    paths = []
    for run in ("x", "y"):
        rep = solvability_sweep(cfg, pot)
        paths.append(emit_report(rep, "json", str(tmp_path), f"sweep_{run}")[0])
    with open(paths[0], "rb") as f1, open(paths[1], "rb") as f2:
        b1, b2 = f1.read(), f2.read()
    assert b1 == b2

    cfg2 = ExperimentConfig(coeff="laminate", eps_list=(0.5, 0.25),
                            resolution=32, nt=32, cell_resolution=16)
    p2 = []
    for run in ("x", "y"):
        rep = homogenization_experiment(cfg2)
        p2.append(emit_report(rep, "json", str(tmp_path), f"homog_{run}")[0])
    with open(p2[0], "rb") as f1, open(p2[1], "rb") as f2:
        assert f1.read() == f2.read()
    _report(8, "determinism", f"sweep bytes={len(b1)}, reports identical")
