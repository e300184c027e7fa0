"""Periodic corrector problems and the homogenized coefficient matrix.

The corrector chi_alpha solves  -div(A^T (grad chi + alpha)) = 0  on the
unit torus with mean zero; the effective matrix collects the averaged
fluxes Abar^T alpha = <A^T (grad w_alpha)>, one corrector per coordinate
direction.  The cell average and the cell equation both live on the full
(n+1)-dimensional unit cell, which keeps the dimensions consistent.

Discretization: multilinear (Q1) elements on a uniform periodic grid with
the coefficient sampled once per element at its midpoint.  The stiffness is
then a 3^d-point stencil with weights that vary by node, and its CSR rows
are written straight from them, with no element triplets to sort and sum.
The Galerkin structure makes the discrete energy identity alpha . Abar
alpha = <(grad w)^T A grad w> exact up to solver tolerance, keeps Abar
symmetric for symmetric A, and reproduces 1-d laminates exactly whenever
the material interfaces fall on element boundaries.

Assembly and read-out are flat products over the (N^d, d^2) table of
element matrices.  Each corner's loads are one BLAS product, a (d, d^2)
matrix of the corner's E entries times that table's transpose, which
gives them in the (d, N^d) layout CG takes; each stencil column sums its
offset's (a, b) pairs, table times G[:, :, a, b], into one contiguous
array that is written into the (N^d, 3^d) table once; and the element
gradients are the (N^d, 2^d) stack of shifted node values times E^T.
Every sum runs in corner order, so the results equal the per-corner
formulas (kept as references in the tests) bit for bit.  Abar stays one
einsum: rewrites that kept its bits were slower, and a BLAS dot moved it
by 5e-14.

The linear systems are solved by this module's CG, `pcg`, on the
mean-zero subspace to the fixed relative residual 1e-10, preconditioned by
the circulant Q1 stiffness of one constant reference matrix A0 on the same
grid, inverted by real FFTs (the discrete Galerkin form of FFT
homogenization, Moulinec and Suquet 1998).  Element by element the two
stiffness energies stay within the eigenvalue bounds of A relative to A0
whatever the mesh size, so the CG iteration count does not grow with N.

The d corrector solves run concurrently, on min(d, usable cores) threads.
Threads pay here because the CG time goes to numpy's FFTs and scipy's CSR
matvec, which release the GIL, and each solve writes only its own state.
The LU solves of the `pde` marches stay serial: SuperLU's solve releases the
GIL (scipy 1.17.1), but 2 threads of 200 solves ran 0.94-1.46x as fast as in
series on 2 cores, and a second live field adds about 25 MB to homogenize's
peak.  The gradients and Abar columns follow in series, so their temporaries
never sit beside a running solve.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientField, check_periodicity, scale_field

# CG stops at this relative residual, within an iteration cap fixed in N:
# the circulant preconditioner keeps every solve near 30 iterations at any
# resolution
_CG_TOL = 1e-10
_CG_MAXITER = 2000

__all__ = ["ConvergenceError", "EffectiveMatrix", "effective_matrix",
           "voigt_reuss_bounds"]


@lru_cache(maxsize=8)
def _q1_reference(d: int):
    """Reference-cell integrals for multilinear elements on [0,1]^d.

    Returns (corners, G, E) where corners lists the 2^d corner multi-indices,
    G[k, l, a, b] = int d_k phi_a d_l phi_b dxi  and
    E[k, a] = int d_k phi_a dxi = +-2^{1-d}, the sign that of corner bit k.
    Gauss 2-point quadrature per axis is exact for the products in G.
    """
    corners = list(product((0, 1), repeat=d))
    gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    pts = np.array(list(product(gp, repeat=d)))
    # d_k phi_a: the 1-d slope +-1 on axis k times x or 1 - x on the others
    grads = np.ones((len(corners), len(pts), d))
    for (a, ci), k, j in product(enumerate(corners), range(d), range(d)):
        x = pts[:, j]
        grads[a, :, k] *= 2 * ci[j] - 1 if j == k else x if ci[j] else 1 - x
    G = np.einsum("aqk,bql->klab", grads, grads) * 0.5 ** d   # equal weights
    E = (2.0 * np.array(corners).T - 1) / 2 ** (d - 1)
    return corners, G, E


def _element_coefficients(A: CoefficientField, N: int) -> np.ndarray:
    d = A.d
    h = 1.0 / N
    axes = [np.arange(N) * h + 0.5 * h] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return A(pts)  # (N^d, d, d)


def _shift(x: np.ndarray, c) -> np.ndarray:
    """y[i] = x[i - c] on the periodic grid (the leading len(c) axes)."""
    return np.roll(x, tuple(c), axis=tuple(range(len(c))))


def _stencil(Avals: np.ndarray, N: int):
    """Node weights s[i, m] of the periodic Q1 stiffness at offsets[m].

    Avals is one matrix per element in C order, (N^d, d, d), or one for all,
    (1, d, d).  Ke[a, b] = h^{d-2} sum_kl A_kl G[k, l, a, b] couples node
    i = e + c_a to i + off, off = c_b - c_a, so s[i, m] sums the Ke[a, b]
    with off = offsets[m] over the elements e = i - c_a.  Each Ke[:, a, b]
    is formed on its own; the (ne, 2^d, 2^d) array never is.
    """
    d = Avals.shape[-1]
    corners, G, _ = _q1_reference(d)
    grid = (N if len(Avals) > 1 else 1,) * d
    offsets = list(product((-1, 0, 1), repeat=d))
    flat = Avals.reshape(len(Avals), d * d)
    pairs = {off: [] for off in offsets}
    for (a, ca), (b, cb) in product(enumerate(corners), repeat=2):
        pairs[tuple(np.subtract(cb, ca))].append((a, b, ca))
    s = np.empty((len(flat), len(offsets)))
    for m, off in enumerate(offsets):
        col = np.zeros(len(flat))
        for a, b, ca in pairs[off]:
            kab = (flat @ G[:, :, a, b].ravel()).reshape(grid)
            col += _shift(kab, ca).reshape(-1)
        np.multiply(col, (1.0 / N) ** (d - 2), out=s[:, m])
    return offsets, s


def _assemble(A: CoefficientField, N: int):
    """Periodic stiffness (CSR), the per-direction loads and the element A.

    Node (i1..id) lives at the grid corners modulo N; element e has corner
    nodes e + c for c in {0,1}^d (indices mod N).  Row i of S holds the
    `_stencil` weights against the nodes i + off, in int32 columns.  Each
    load entry sums 2^d terms of size at most h^{d-1} max|A|, so a load of
    norm below 2^d eps h^{d-1} max|A| sqrt(N^d) is roundoff and is returned
    as 0: CG then solves it as x = 0 in 0 iterations, not to 1e-10 of noise.
    """
    d = A.d
    grid = (N,) * d
    corners, _, E = _q1_reference(d)
    Avals = _element_coefficients(A, N)
    offsets, s = _stencil(Avals, N)
    nn = N ** d
    nodes = np.arange(nn, dtype=np.int32).reshape(grid)
    cols = np.empty_like(s, dtype=np.int32)
    for m, off in enumerate(offsets):
        cols[:, m] = _shift(nodes, np.negative(off)).reshape(-1)
    S = sp.csr_matrix((s.reshape(-1), cols.reshape(-1),
                       len(offsets) * np.arange(nn + 1)), shape=(nn, nn))

    # load for direction alpha = e_j:
    # b_a = -int grad phi_a . (A^T e_j) = -h^{d-1} sum_k A_{jk} E[k,a]
    flat_T = Avals.reshape(nn, d * d).T
    loads = np.zeros((d, nn))
    for a, ca in enumerate(corners):
        W = np.kron(np.eye(d), E[:, a])         # W[j, j d + k] = E[k, a]
        be = (W @ flat_T).reshape((d,) + grid)
        loads += np.roll(be, ca, axis=tuple(range(1, d + 1))).reshape(d, nn)
    loads *= -(1.0 / N) ** (d - 1)
    floor = 2 ** d * np.finfo(float).eps * (1.0 / N) ** (d - 1) \
        * max(Avals.max(), -Avals.min()) * np.sqrt(nn)
    loads[np.linalg.norm(loads, axis=1) < floor] = 0.0
    return S, loads, Avals


def _element_avg_gradient(chi: np.ndarray, N: int) -> np.ndarray:
    """Element-averaged Q1 gradient of node values chi (N,)*d, as (N^d, d)."""
    d = chi.ndim
    corners, _, E = _q1_reference(d)
    nodes = np.stack([_shift(chi, np.negative(c)).reshape(-1)
                      for c in corners], axis=-1)
    return (nodes @ E.T) * N           # int over xi, scaled by 1/h


@dataclass(frozen=True)
class EffectiveMatrix:
    """Abar with the CG relative residual and iteration count per direction."""

    Abar: np.ndarray
    resolution: int
    residuals: np.ndarray
    iterations: np.ndarray

    def __post_init__(self):
        for name, dtype in (("Abar", float), ("residuals", float),
                            ("iterations", int)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _prepared(A: CoefficientField, N: int) -> CoefficientField:
    """The checked unit-periodic field for a cell problem at resolution N.

    N and the period are checked before the field is evaluated; the field
    must repeat to 1e-8 (Frobenius) at 256 sample points.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"resolution must be an int, got {N!r}")
    if N < 8:
        raise ValueError("resolution must be at least 8")
    if A.period != "lattice":
        raise ValueError("cell problems need a lattice-periodic field")
    A = scale_field(A, 1.0 / A.period_scale)    # Abar is invariant
    dev = check_periodicity(A)
    if dev > 1e-8:
        raise ValueError(f"field is not periodic (deviation {dev:.3e})")
    return A


def _reference_inverse(Avals: np.ndarray, N: int):
    """r -> K0^+ r for the circulant Q1 stiffness K0 of the reference A0.

    Row i of K0 is the `_stencil` of the single matrix A0, the same 3^d
    weights s[off] at every node, placed at off mod N.  A0 is symmetric, so
    s is even and its FFT (the symbol) is real.  The symbol vanishes only
    on the constant mode, which the pseudo-inverse drops.
    """
    d = Avals.shape[-1]
    A0 = Avals.mean(axis=0)
    offsets, s = _stencil(0.5 * (A0 + A0.T)[None], N)
    shape = (N,) * d
    axes = tuple(range(d))
    stencil = np.zeros(shape)
    for off, w in zip(offsets, s[0]):
        stencil[off] = w            # index -1 is node N - 1
    symbol = np.fft.rfftn(stencil, axes=axes).real
    symbol.flat[0] = np.inf

    def apply(r):
        z = np.fft.rfftn(r.reshape(shape), axes=axes)
        z /= symbol
        return np.fft.irfftn(z, s=shape, axes=axes).reshape(-1)
    return apply


def _constant_mode(nn: int) -> np.ndarray:
    """The unit constant vector, the nullspace of every periodic stiffness."""
    return np.full(nn, 1.0 / np.sqrt(nn))


class ConvergenceError(RuntimeError):
    """Raised by `pcg` when maxiter iterations miss the tolerance."""

    def __init__(self, iterations, relres):
        self.iterations = iterations
        self.relres = relres
        super().__init__(
            f"CG did not reach tolerance after {iterations} iterations "
            f"(relative residual {relres:.3e})")


def pcg(matvec, b, tol, maxiter, precond, deflate):
    """Preconditioned conjugate gradient for SPSD systems with a known
    nullspace vector, started from zero.

    matvec   -- callable v -> A v, a new array that pcg may overwrite
    precond  -- callable r -> M^-1 r, likewise a new array (an identity
                preconditioner returns a copy); one that shares memory
                with its argument raises ValueError
    deflate  -- unit-norm nullspace vector v (the normalized constant mode
                of periodic problems); w - v (v . w) projects it out of b,
                iterates and residuals.  It is read, never copied or
                written, so one vector serves any number of solves, also
                at once.  A vector whose norm is off 1 by more than 1e-12
                raises ValueError.
    Works in place: x, r, p and one projection buffer are allocated once
    per call and updated in place, and b is copied, never written.  Stops
    once the relative residual is at most tol.  Returns (x, iterations,
    relres).  Raises ConvergenceError after maxiter iterations.
    """
    v = deflate
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
        raise ValueError("deflate must be a unit vector")
    scratch = np.empty_like(v)

    def project(w):
        np.multiply(v, v @ w, out=scratch)
        return np.subtract(w, scratch, out=w)

    def projected(apply, w):
        out = apply(w)
        if np.may_share_memory(out, w):
            raise ValueError("matvec and precond must return new arrays")
        return project(out)

    r = project(np.array(b, dtype=float))
    bnorm = np.linalg.norm(r)
    if bnorm == 0.0:
        return np.zeros_like(r), 0, 0.0
    # r0 = b - A 0 is b; a second projection takes out the roundoff that
    # the first one leaves along v
    project(r)
    x = np.zeros_like(r)
    p = projected(precond, r)
    rz = r @ p
    relres = np.linalg.norm(r) / bnorm
    # A p and M^-1 r are dropped once read, so that neither is kept alive
    # while the other is made
    for k in range(1, maxiter + 1):
        Ap = projected(matvec, p)
        alpha = rz / (p @ Ap)
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, Ap, out=Ap)
        del Ap
        relres = np.linalg.norm(r) / bnorm
        if relres <= tol:
            return project(x), k, relres
        z = projected(precond, r)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    raise ConvergenceError(maxiter, relres)


def _solve_one(S, b, precond, mode):
    x, its, relres = pcg(lambda v: S @ v, b, tol=_CG_TOL,
                         maxiter=_CG_MAXITER, precond=precond, deflate=mode)
    x -= x.mean()
    return x, its, relres


def _workers(d: int) -> int:
    """min(d, the cores this process may run on)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(d, cores)


def _correctors(A: CoefficientField, N: int):
    """The d coordinate correctors of A at resolution N, solved concurrently
    (see the module docstring), after the resolution and period checks.

    Returns (Avals, solves): the element coefficients of the unit-periodic
    field and one (chi, iterations, relres) per direction e_j, chi the
    mean-zero node values in C order.
    """
    A = _prepared(A, N)
    S, loads, Avals = _assemble(A, N)
    precond = _reference_inverse(Avals, N)
    mode = _constant_mode(N ** A.d)
    with ThreadPoolExecutor(_workers(A.d)) as pool:
        solves = list(pool.map(
            lambda b: _solve_one(S, b, precond, mode), loads))
    return Avals, solves


def effective_matrix(A: CoefficientField, N: int) -> EffectiveMatrix:
    """Assemble Abar column by column from the d coordinate correctors."""
    Avals, solves = _correctors(A, N)
    d = A.d
    Abar_T = np.zeros((d, d))
    for j, (chi, _, _) in enumerate(solves):
        grad = _element_avg_gradient(chi.reshape((N,) * d), N)
        grad[:, j] += 1.0
        Abar_T[:, j] = np.einsum("elk,el->ek", Avals, grad).mean(axis=0)
    _, iterations, residuals = zip(*solves)
    return EffectiveMatrix(Abar_T.T, N, residuals, iterations)


def voigt_reuss_bounds(A: CoefficientField, N: int):
    """(harmonic, arithmetic) matrix means over the element samples, with
    N and A checked as for a cell problem before A is evaluated."""
    A = _prepared(A, N)
    Avals = _element_coefficients(A, N)
    arith = Avals.mean(axis=0)
    harm = np.linalg.inv(np.linalg.inv(Avals).mean(axis=0))
    return harm, arith
