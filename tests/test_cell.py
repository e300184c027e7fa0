import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from parahom import cell
from parahom.cell import (effective_matrix, voigt_reuss_bounds,
                          _element_avg_gradient, _element_coefficients,
                          _assemble, _constant_mode, _correctors, _prepared,
                          _q1_reference, _reference_inverse, _solve_one,
                          ConvergenceError, pcg)
from parahom.coeffs import CoefficientField, preset, scale_field


def laminate_profile_midpoint(N, a_low=1.0, a_high=4.0, lo=0.25, hi=0.75):
    y = (np.arange(N) + 0.5) / N
    return np.where((y >= lo) & (y < hi), a_high, a_low)


def corrector(A, j, N):
    """Node values (N,)*d of the e_j corrector that `effective_matrix`
    solves, and the relative residual of its solve."""
    chi, _, relres = _correctors(A, N)[1][j]
    return chi.reshape((N,) * A.d), relres


class TestCorrector:
    def test_constant_coefficients_vanish(self):
        chi, _ = corrector(preset("constant", d=2), 0, 16)
        assert np.abs(chi).max() <= 1e-12

    def test_laminate_gradient_oracle(self, monkeypatch):
        # dw/dy1 = <a^-1>^-1 / a(y1) pointwise, from the 1-d quadrature oracle
        monkeypatch.setattr(cell, "_CG_TOL", 1e-12)
        N = 32
        A = preset("laminate", d=2)
        chi, _ = corrector(A, 0, N)
        a = laminate_profile_midpoint(N)
        target = (1.0 / np.mean(1.0 / a)) / a          # dw/dy1 per column
        grad = _element_avg_gradient(chi, N)
        dw = grad[:, 0].reshape(N, N) + 1.0
        assert np.abs(dw - target[:, None]).max() <= 1e-8

    def test_laminate_tangential_direction_trivial(self):
        chi, relres = corrector(preset("laminate", d=2), 1, 24)
        assert np.abs(chi).max() <= 1e-10
        assert relres <= 1e-10

    def test_mean_zero_invariant(self):
        chi, _ = corrector(preset("trig2d", d=2), 0, 32)
        assert abs(chi.mean()) <= 1e-10 * np.abs(chi).max()

    def test_requires_lattice_periodicity(self):
        A = CoefficientField(preset("constant", d=2).evaluator, d=2, lam=1.0,
                             period="none")
        with pytest.raises(ValueError):
            corrector(A, 0, 16)

    def test_nonperiodic_evaluator_rejected(self):
        def ev(X):
            X = np.asarray(X)
            c = 2.0 + 0.3 * X[..., 0]          # not periodic
            out = np.zeros(X.shape[:-1] + (2, 2))
            out[..., 0, 0] = c
            out[..., 1, 1] = c
            return out
        A = CoefficientField(ev, d=2, lam=4.0, period="lattice")
        with pytest.raises(ValueError, match="periodic"):
            corrector(A, 0, 16)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            corrector(preset("constant", d=2), 0, 4)


class TestEffectiveMatrix:
    def test_constant_identity(self):
        em = effective_matrix(preset("constant", d=2, value=3.0), 16)
        assert np.abs(em.Abar - 3.0 * np.eye(2)).max() <= 1e-10

    def test_laminate_means(self):
        N = 64
        em = effective_matrix(preset("laminate", d=2), N)
        a = laminate_profile_midpoint(N)
        harm = 1.0 / np.mean(1.0 / a)
        arith = np.mean(a)
        assert em.Abar[0, 0] == pytest.approx(harm, rel=1e-10)
        assert em.Abar[1, 1] == pytest.approx(arith, rel=1e-10)
        assert abs(em.Abar[0, 1]) <= 1e-10
        assert abs(em.Abar[1, 0]) <= 1e-10

    def test_checker_duality_trend(self):
        # the log-symmetric two-phase medium homogenizes to sqrt(a1 a2) I
        vals = []
        for delta in (0.5, 0.25):
            em = effective_matrix(preset("checker", d=2, delta=delta), 96)
            vals.append(em.Abar)
            assert em.Abar[0, 0] == pytest.approx(2.0, abs=0.01)
        fine = effective_matrix(preset("checker", d=2, delta=0.25), 128)
        assert np.abs(fine.Abar - vals[1]).max() <= 5e-3   # self-convergence

    def test_symmetry(self):
        em = effective_matrix(preset("trig2d", d=2), 48)
        assert np.abs(em.Abar - em.Abar.T).max() <= 1e-8

    def test_voigt_reuss(self):
        for name in ("laminate", "trig2d", "checker"):
            N = 48
            em = effective_matrix(preset(name, d=2), N)
            harm, arith = voigt_reuss_bounds(preset(name, d=2), N)
            scale = np.linalg.norm(em.Abar)
            assert np.linalg.eigvalsh(em.Abar - harm).min() >= -1e-6 * scale
            assert np.linalg.eigvalsh(arith - em.Abar).min() >= -1e-6 * scale

    def test_integer_shift_invariance(self):
        A = preset("trig2d", d=2)

        def shifted(X):
            return A.evaluator(np.asarray(X, dtype=float) + np.array([1.0, 0.0]))

        B = CoefficientField(shifted, d=2, lam=A.lam, period="lattice")
        em_a = effective_matrix(A, 32)
        em_b = effective_matrix(B, 32)
        assert np.abs(em_a.Abar - em_b.Abar).max() <= 1e-8

    def test_energy_identity_independent_quadrature(self, monkeypatch):
        # alpha . Abar alpha equals the Gauss-quadrature energy of w_alpha
        monkeypatch.setattr(cell, "_CG_TOL", 1e-12)
        N = 48
        A = preset("trig2d", d=2)
        alpha = np.array([1.0, 0.0])
        em = effective_matrix(A, N)
        vals, _ = corrector(A, 0, N)

        corners, G, E = _q1_reference(2)
        h = 1.0 / N
        gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
        energy = 0.0
        centers = (np.arange(N) + 0.5) * h
        Ae = A(np.stack(np.meshgrid(centers, centers, indexing="ij"),
                        axis=-1).reshape(-1, 2)).reshape(N, N, 2, 2)
        corner_vals = np.empty((N, N, 4))
        for a, (c1, c2) in enumerate(corners):
            corner_vals[:, :, a] = np.roll(np.roll(vals, -c1, axis=0),
                                           -c2, axis=1)
        for q1 in gp:
            for q2 in gp:
                # Q1 gradient at the quadrature point
                dphi = np.empty((4, 2))
                for a, (c1, c2) in enumerate(corners):
                    s1 = q1 if c1 == 1 else 1 - q1
                    s2 = q2 if c2 == 1 else 1 - q2
                    d1 = 1.0 if c1 == 1 else -1.0
                    d2 = 1.0 if c2 == 1 else -1.0
                    dphi[a] = [d1 * s2 / h, s1 * d2 / h]
                g = np.einsum("ija,ak->ijk", corner_vals, dphi)
                g[:, :, 0] += alpha[0]
                g[:, :, 1] += alpha[1]
                energy += 0.25 * np.einsum("ijk,ijkl,ijl->", g, Ae, g)
        energy *= h * h
        assert alpha @ em.Abar @ alpha == pytest.approx(energy, rel=1e-8)

    def test_scaled_field_same_matrix(self):
        A = preset("laminate", d=2)
        em1 = effective_matrix(A, 32)
        em2 = effective_matrix(scale_field(A, 0.25), 32)
        assert np.abs(em1.Abar - em2.Abar).max() <= 1e-10


def observed_order(A, N_list):
    """Self-convergence order of Abar over three resolutions refined by one
    constant ratio, from the Richardson ratio of successive differences."""
    mats = [effective_matrix(A, N).Abar for N in N_list]
    d1 = np.linalg.norm(mats[1] - mats[0])
    d2 = np.linalg.norm(mats[2] - mats[1])
    return np.log(d1 / d2) / np.log(N_list[1] / N_list[0])


class TestGridConvergence:
    def test_smooth_second_order(self):
        assert observed_order(preset("trig2d", d=2), [16, 32, 64]) >= 1.8

    def test_laminate_first_order(self):
        # N not congruent 2 mod 4: material interfaces miss the sampling grid
        assert observed_order(preset("laminate", d=2), [9, 27, 81]) >= 0.9


def test_three_dimensional_cell():
    em = effective_matrix(preset("laminate", d=3), 12)
    a = laminate_profile_midpoint(12)
    assert em.Abar[0, 0] == pytest.approx(1.0 / np.mean(1.0 / a), rel=1e-9)
    assert em.Abar[1, 1] == pytest.approx(np.mean(a), rel=1e-9)
    assert em.Abar[2, 2] == pytest.approx(np.mean(a), rel=1e-9)


def test_iterations_independent_of_resolution():
    counts = [effective_matrix(preset("checker", d=2), N).iterations
              for N in (32, 64, 128)]
    counts = np.concatenate(counts)
    assert counts.max() <= 30
    assert counts.max() - counts.min() <= 3


def _jacobi_effective_matrix(A, N, tol):
    """Abar from Jacobi-PCG on the same assembled system."""
    d = A.d
    S, loads, Avals = _assemble(A, N)
    inv = 1.0 / S.diagonal()
    AT = np.swapaxes(Avals, -1, -2)
    Abar_T = np.zeros((d, d))
    for j in range(d):
        chi, _, _ = pcg(lambda v: S @ v, loads[j], tol=tol, maxiter=100 * N,
                        precond=lambda r: inv * r, deflate=_constant_mode(N ** d))
        grad = _element_avg_gradient((chi - chi.mean()).reshape((N,) * d), N)
        grad[:, j] += 1.0
        Abar_T[:, j] = np.einsum("ekl,el->ek", AT, grad).mean(axis=0)
    return Abar_T.T


def test_pcg_raises_at_its_cap():
    S, loads, _ = _assemble(preset("checker", d=2), 16)
    with pytest.raises(ConvergenceError) as err:
        pcg(lambda v: S @ v, loads[0], tol=1e-12, maxiter=3,
            precond=np.copy, deflate=_constant_mode(16 ** 2))
    assert err.value.iterations == 3
    assert err.value.relres > 1e-12


@pytest.mark.parametrize("name,d,N", [("checker", 2, 64), ("trig", 3, 16)],
                         ids=["checker-d2-N64", "trig-d3-N16"])
def test_matches_jacobi_reference(name, d, N, monkeypatch):
    monkeypatch.setattr(cell, "_CG_TOL", 1e-12)
    A = preset(name, d=d)
    em = effective_matrix(A, N)
    ref = _jacobi_effective_matrix(A, N, tol=1e-12)
    assert np.abs(em.Abar - ref).max() <= 1e-12 * np.abs(ref).max()


def _coo_assemble(A, N):
    """Element-by-element COO assembly of the periodic Q1 system, summed by
    `tocsr`: an independent reference for the stencil operator and loads.
    Returns (S, loads, corner_nodes), corner_nodes[e, a] = node e + c_a."""
    d = A.d
    h = 1.0 / N
    corners, G, E = _q1_reference(d)
    Avals = _element_coefficients(A, N)
    ne = nn = N ** d
    idx = np.arange(ne).reshape((N,) * d)
    corner_nodes = np.empty((ne, len(corners)), dtype=np.int64)
    for a, ci in enumerate(corners):
        rolled = np.roll(idx, [-c for c in ci], axis=tuple(range(d)))
        corner_nodes[:, a] = rolled.reshape(-1)
    Ke = h ** (d - 2) * np.einsum("ekl,klab->eab", Avals, G)
    nc = len(corners)
    rows = np.repeat(corner_nodes, nc, axis=1).reshape(-1)
    cols = np.tile(corner_nodes, (1, nc)).reshape(-1)
    S = sp.coo_matrix((Ke.reshape(-1), (rows, cols)), shape=(nn, nn)).tocsr()
    loads = np.zeros((d, nn))
    AT = np.swapaxes(Avals, -1, -2)
    for j in range(d):
        be = -h ** (d - 1) * np.einsum("ek,ka->ea", AT[:, :, j], E)
        np.add.at(loads[j], corner_nodes.reshape(-1), be.reshape(-1))
    return S, loads, corner_nodes


def _full_matrix_field(d):
    """A periodic field with every entry varying and A != A^T, so a swapped
    corner, offset or transpose shows in the assembly."""
    rng = np.random.default_rng(5)
    amp = rng.uniform(-0.3, 0.3, (d, d, d))
    phase = rng.uniform(0.0, 1.0, (d, d, d))

    def ev(X):
        X = np.asarray(X, dtype=float)
        waves = np.sin(2 * np.pi * (X[..., None, None, :] + phase))
        return 2.0 * np.eye(d) + (amp * waves).sum(axis=-1)
    return CoefficientField(ev, d=d, lam=4.0, period="lattice")


@pytest.mark.parametrize("d,N", [(2, 8), (2, 9), (3, 8)])
def test_stencil_matches_coo_reference(d, N):
    A = _full_matrix_field(d)
    S, loads, _ = _assemble(A, N)
    S_ref, loads_ref, corner_nodes = _coo_assemble(A, N)
    E = _q1_reference(d)[2]
    X = np.random.default_rng(11).standard_normal((N ** d, 3))

    def assert_close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    assert_close(S @ X, S_ref @ X)
    assert_close(loads, loads_ref)
    for x in X.T:
        assert_close(_element_avg_gradient(x.reshape((N,) * d), N),
                     x[corner_nodes] @ E.T * N)


def _corner_stencil(Avals, N):
    """The stencil table as each (a, b) pair adds its shifted Ke[:, a, b]
    into its offset's column of the table, then scaled by h^{d-2}: the
    per-pair formula that `_stencil`'s column sums must equal bit for bit."""
    d = Avals.shape[-1]
    corners, G, _ = _q1_reference(d)
    offsets = list(product((-1, 0, 1), repeat=d))
    flat = Avals.reshape(N ** d, d * d)
    s = np.zeros((N ** d, len(offsets)))
    for (a, ca), (b, cb) in product(enumerate(corners), repeat=2):
        kab = (flat @ G[:, :, a, b].ravel()).reshape((N,) * d)
        s[:, offsets.index(tuple(np.subtract(cb, ca)))] += \
            np.roll(kab, ca, axis=tuple(range(d))).reshape(-1)
    s *= (1.0 / N) ** (d - 2)
    return s


def _corner_loads(Avals, N):
    """The loads as each corner's batched A @ E[:, a] adds into a (d, N^d)
    array through a transposed view, with `_assemble`'s roundoff floor."""
    d = Avals.shape[-1]
    corners, _, E = _q1_reference(d)
    nn = N ** d
    loads = np.zeros((d, nn))
    for a, ca in enumerate(corners):
        be = (Avals @ E[:, a]).reshape((N,) * d + (d,))
        loads += np.roll(be, ca, axis=tuple(range(d))).reshape(nn, d).T
    loads *= -(1.0 / N) ** (d - 1)
    floor = 2 ** d * np.finfo(float).eps * (1.0 / N) ** (d - 1) \
        * max(Avals.max(), -Avals.min()) * np.sqrt(nn)
    loads[np.linalg.norm(loads, axis=1) < floor] = 0.0
    return loads


def _outer_gradient(chi, N):
    """The element gradient as a sum of one (N,)*d x (d,) outer product
    per corner."""
    d = chi.ndim
    corners, _, E = _q1_reference(d)
    grad = sum(np.multiply.outer(
        np.roll(chi, np.negative(c), axis=tuple(range(d))), E[:, a])
        for a, c in enumerate(corners))
    return grad.reshape(-1, d) * N


@pytest.mark.parametrize("name,d,N", [("checker", 2, 64), ("trig", 3, 16)],
                         ids=["checker-d2-N64", "trig-d3-N16"])
def test_flat_products_equal_the_corner_formulas(name, d, N):
    A = _prepared(preset(name, d=d), N)
    S, loads, Avals = _assemble(A, N)
    assert np.array_equal(S.data, _corner_stencil(Avals, N).reshape(-1))
    assert np.array_equal(loads, _corner_loads(Avals, N))
    chis = [np.random.default_rng(2).standard_normal((N,) * d)]
    chis += [chi.reshape((N,) * d) for chi, _, _ in _correctors(A, N)[1]]
    for chi in chis:
        assert np.array_equal(_element_avg_gradient(chi, N),
                              _outer_gradient(chi, N))


def test_operator_is_the_stencil_and_memory_per_node():
    for d, N in ((2, 16), (3, 8)):
        S, _, _ = _assemble(preset("checker", d=d), N)
        assert S.nnz == 3 ** d * N ** d
        assert S.indices.dtype == np.int32
    # peak traced allocation of a whole Abar solve, per grid node
    N = 128
    tracemalloc.start()
    try:
        effective_matrix(preset("checker"), N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / N ** 2 <= 400


def _unevaluable(X):
    raise AssertionError("coefficient evaluated before the input checks")


@pytest.mark.parametrize("N", [16.0, np.float64(16), "16", True])
def test_non_integer_resolution_fails_before_any_evaluation(N):
    A = CoefficientField(_unevaluable, d=2, lam=1.0, period="lattice")
    with pytest.raises(ValueError, match="resolution"):
        effective_matrix(A, N)
    with pytest.raises(ValueError, match="resolution"):
        _correctors(A, N)


def test_numpy_integer_resolution_accepted():
    em = effective_matrix(preset("constant", d=2), np.int64(8))
    assert np.abs(em.Abar - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("N", [16.5, 0, "16"])
def test_voigt_reuss_checks_resolution_before_any_evaluation(N):
    A = CoefficientField(_unevaluable, d=2, lam=1.0, period="lattice")
    with pytest.raises(ValueError, match="resolution"):
        voigt_reuss_bounds(A, N)


def test_voigt_reuss_requires_lattice_periodicity():
    A = CoefficientField(_unevaluable, d=2, lam=1.0, period="none")
    with pytest.raises(ValueError, match="lattice"):
        voigt_reuss_bounds(A, 16)


def _serial_effective_matrix(A, N):
    """effective_matrix with its d solves run one after the other."""
    d = A.d
    S, loads, Avals = _assemble(A, N)
    precond = _reference_inverse(Avals, N)
    mode = _constant_mode(N ** d)
    Abar_T = np.zeros((d, d))
    residuals = np.zeros(d)
    iterations = np.zeros(d, dtype=int)
    for j in range(d):
        chi, iterations[j], residuals[j] = _solve_one(S, loads[j], precond,
                                                      mode)
        grad = _element_avg_gradient(chi.reshape((N,) * d), N)
        grad[:, j] += 1.0
        Abar_T[:, j] = np.einsum("elk,el->ek", Avals, grad).mean(axis=0)
    return Abar_T.T, residuals, iterations


@pytest.mark.parametrize("name,d,N", [("checker", 2, 64), ("trig", 3, 16)],
                         ids=["checker-d2-N64", "trig-d3-N16"])
def test_concurrent_solves_match_serial_loop(name, d, N):
    A = preset(name, d=d)
    em = effective_matrix(A, N)
    Abar, residuals, iterations = _serial_effective_matrix(A, N)
    assert np.array_equal(em.Abar, Abar)
    assert np.array_equal(em.residuals, residuals)
    assert np.array_equal(em.iterations, iterations)


def test_pcg_leaves_its_load_unchanged():
    S, loads, Avals = _assemble(preset("checker"), 16)
    b = loads[0].copy()
    pcg(lambda v: S @ v, b, tol=1e-10, maxiter=100,
        precond=_reference_inverse(Avals, 16), deflate=_constant_mode(16 ** 2))
    assert np.array_equal(b, loads[0])


def test_pcg_checks_its_deflation_vector_and_callbacks():
    S, loads, _ = _assemble(preset("checker"), 16)
    with pytest.raises(ValueError, match="unit"):
        pcg(lambda v: S @ v, loads[0], tol=1e-10, maxiter=100,
            precond=np.copy, deflate=np.ones(16 ** 2))
    with pytest.raises(ValueError, match="new arrays"):
        pcg(lambda v: S @ v, loads[0], tol=1e-10, maxiter=100,
            precond=lambda r: r, deflate=_constant_mode(16 ** 2))


def test_convergence_error_of_one_direction_surfaces(monkeypatch):
    # the laminate's tangential load is zero and solves in 0 iterations;
    # with no iterations allowed only the normal direction fails
    monkeypatch.setattr(cell, "_CG_MAXITER", 0)
    before = threading.active_count()
    with pytest.raises(ConvergenceError) as err:
        effective_matrix(preset("laminate"), 16)
    assert err.value.iterations == 0
    assert threading.active_count() == before


def test_roundoff_loads_are_solved_as_zero():
    # trig varies in y3 alone: the loads of e1 and e2 are roundoff (about
    # 5e-17 and 2e-17 before the floor), and CG ran 15 iterations on each
    em = effective_matrix(preset("trig", d=3), 16)
    assert em.iterations.tolist()[:2] == [0, 0]
    assert em.residuals.tolist()[:2] == [0.0, 0.0]
    assert em.iterations[2] > 0
    # with chi = 0 those columns are the element mean of 2 + sin, i.e. 2
    assert np.allclose(np.diag(em.Abar)[:2], 2.0, rtol=1e-14, atol=0.0)
