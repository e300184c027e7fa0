"""Periodic corrector problems and the homogenized coefficient matrix.

The corrector chi_alpha solves  -div(A^T (grad chi + alpha)) = 0  on the
unit torus with mean zero; the effective matrix collects the averaged
fluxes Abar^T alpha = <A^T (grad w_alpha)>, one corrector per coordinate
direction.  The cell average and the cell equation both live on the full
(n+1)-dimensional unit cell, which keeps the dimensions consistent.

Discretization: multilinear (Q1) elements on a uniform periodic grid with
the coefficient sampled once per element at its midpoint.  The Galerkin
structure makes the discrete energy identity alpha . Abar alpha =
<(grad w)^T A grad w> exact up to solver tolerance, keeps Abar symmetric
for symmetric A, and reproduces 1-d laminates exactly whenever the
material interfaces fall on element boundaries.  The linear systems are
solved by CG on the mean-zero subspace, preconditioned by the circulant Q1
stiffness of one constant reference matrix A0 on the same grid, inverted by
real FFTs (the discrete Galerkin form of FFT homogenization, Moulinec and
Suquet 1998).  Element by element the two stiffness energies stay within the
eigenvalue bounds of A relative to A0 whatever the mesh size, so the CG
iteration count does not grow with N.

The d corrector solves are independent and may run concurrently; each
solve touches only its own state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientField, check_periodicity, scale_field
from .linalg import pcg

# CG iteration cap, fixed in N: the circulant preconditioner keeps every
# solve near 30 iterations at any resolution
_CG_MAXITER = 2000

__all__ = [
    "CorrectorField",
    "EffectiveMatrix",
    "solve_corrector",
    "effective_matrix",
    "voigt_reuss_bounds",
]


@lru_cache(maxsize=8)
def _q1_reference(d: int):
    """Reference-cell integrals for multilinear elements on [0,1]^d.

    Returns (corners, G, E) where corners lists the 2^d corner multi-indices,
    G[k, l, a, b] = int d_k phi_a d_l phi_b dxi  and
    E[k, a] = int d_k phi_a dxi.
    Gauss 2-point quadrature per axis is exact for these integrands.
    """
    corners = list(product((0, 1), repeat=d))
    nc = len(corners)
    gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    gw = np.array([0.5, 0.5])
    pts = np.array(list(product(gp, repeat=d)))
    wts = np.array([np.prod(w) for w in product(gw, repeat=d)])

    def shape_1d(a, x):
        return x if a == 1 else 1.0 - x

    def dshape_1d(a):
        return 1.0 if a == 1 else -1.0

    grads = np.zeros((nc, len(pts), d))
    for a, ci in enumerate(corners):
        for k in range(d):
            g = np.full(len(pts), dshape_1d(ci[k]))
            for j in range(d):
                if j != k:
                    g = g * shape_1d(ci[j], pts[:, j])
            grads[a, :, k] = g

    G = np.einsum("aqk,bql,q->klab", grads, grads, wts)
    E = np.einsum("aqk,q->ka", grads, wts)
    return corners, G, E


def _element_coefficients(A: CoefficientField, N: int) -> np.ndarray:
    d = A.d
    h = 1.0 / N
    axes = [np.arange(N) * h + 0.5 * h] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    return A(pts)  # (N^d, d, d)


def _assemble(A: CoefficientField, N: int):
    """Periodic stiffness matrix and the per-direction load vectors.

    Node (i1..id) lives at the grid corners modulo N; element e has corner
    nodes e + c for c in {0,1}^d (indices mod N).
    """
    d = A.d
    h = 1.0 / N
    corners, G, E = _q1_reference(d)
    Avals = _element_coefficients(A, N)
    ne = Avals.shape[0]
    nn = N ** d

    # element -> corner node flat indices, shape (ne, 2^d)
    idx = np.arange(ne).reshape((N,) * d)
    corner_nodes = np.empty((ne, len(corners)), dtype=np.int64)
    for a, ci in enumerate(corners):
        rolled = idx
        for ax, c in enumerate(ci):
            if c:
                rolled = np.roll(rolled, -1, axis=ax)
        corner_nodes[:, a] = rolled.reshape(-1)

    # K^e_ab = h^{d-2} sum_kl A_kl G[k,l,a,b]
    Ke = h ** (d - 2) * np.einsum("ekl,klab->eab", Avals, G)
    nc = len(corners)
    rows = np.repeat(corner_nodes, nc, axis=1).reshape(-1)
    cols = np.tile(corner_nodes, (1, nc)).reshape(-1)
    S = sp.coo_matrix((Ke.reshape(-1), (rows, cols)), shape=(nn, nn)).tocsr()

    # load for direction alpha = e_j:
    # b_a = -int grad phi_a . (A^T e_j) = -h^{d-1} sum_k (A^T)_{kj} E[k,a]
    loads = np.zeros((d, nn))
    AT = np.swapaxes(Avals, -1, -2)
    for j in range(d):
        be = -h ** (d - 1) * np.einsum("ek,ka->ea", AT[:, :, j], E)
        np.add.at(loads[j], corner_nodes.reshape(-1), be.reshape(-1))
    return S, loads, corner_nodes, Avals


def _element_avg_gradient(chi: np.ndarray, corner_nodes: np.ndarray,
                          d: int, N: int) -> np.ndarray:
    """Element-averaged gradient of the Q1 interpolant, shape (ne, d)."""
    _, _, E = _q1_reference(d)
    h = 1.0 / N
    vals = chi[corner_nodes]            # (ne, 2^d)
    return vals @ E.T / h               # int over xi, scaled by 1/h


@dataclass(frozen=True)
class CorrectorField:
    """Mean-zero periodic part chi_alpha = w_alpha - alpha . y on the torus."""

    values: np.ndarray      # node values, shape (N,)*d
    resolution: int
    residual: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        scale = max(np.abs(v).max(), 1e-300)
        if abs(v.mean()) > 1e-10 * scale:
            raise ValueError("corrector is not mean-zero")


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


def _unit_periodize(A: CoefficientField) -> CoefficientField:
    """Reduce to a 1-periodic field; Abar is invariant under this rescale."""
    if A.period_scale == 1.0:
        return A
    s = A.period_scale
    return scale_field(A, 1.0 / s)


def _prepared(A: CoefficientField, N: int) -> CoefficientField:
    """The checked unit-periodic field for a cell problem at resolution N.

    The field must repeat to 1e-8 (Frobenius) at 256 sample points.
    """
    if N < 8:
        raise ValueError("resolution must be at least 8")
    if A.period != "lattice":
        raise ValueError("cell problems need a lattice-periodic field")
    A = _unit_periodize(A)
    dev = check_periodicity(A)
    if dev > 1e-8:
        raise ValueError(f"field is not periodic (deviation {dev:.3e})")
    return A


def _reference_inverse(Avals: np.ndarray, N: int):
    """r -> K0^+ r for the circulant Q1 stiffness K0 of the reference A0.

    Row i of K0 is the stencil x -> sum_off s[off] x[i + off], where s[off]
    sums the element matrix entries Ke[a, b] with c_b - c_a = off.  A0 is
    symmetric, so s is even and its FFT (the symbol) is real.  The symbol
    vanishes only on the constant mode, which the pseudo-inverse drops.
    """
    d = Avals.shape[-1]
    corners, G, _ = _q1_reference(d)
    A0 = Avals.mean(axis=0)
    A0 = 0.5 * (A0 + A0.T)
    Ke = (1.0 / N) ** (d - 2) * np.einsum("kl,klab->ab", A0, G)
    shape = (N,) * d
    axes = tuple(range(d))
    stencil = np.zeros(shape)
    for a, ca in enumerate(corners):
        for b, cb in enumerate(corners):
            stencil[tuple(np.subtract(cb, ca) % N)] += Ke[a, b]
    symbol = np.fft.rfftn(stencil, axes=axes).real
    symbol.flat[0] = np.inf

    def apply(r):
        z = np.fft.rfftn(r.reshape(shape), axes=axes) / symbol
        return np.fft.irfftn(z, s=shape, axes=axes).reshape(-1)
    return apply


def _solve_one(S, b, precond, tol):
    x, its, relres = pcg(lambda v: S @ v, b, tol=tol, maxiter=_CG_MAXITER,
                         precond=precond, deflate=np.ones(S.shape[0]))
    return x - x.mean(), its, relres


def solve_corrector(A: CoefficientField, alpha, N: int,
                    tol: float = 1e-10) -> CorrectorField:
    """Solve the periodic cell problem for direction alpha at resolution N."""
    A = _prepared(A, N)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (A.d,):
        raise ValueError(f"alpha must be a vector in R^{A.d}")
    S, loads, _, Avals = _assemble(A, N)
    x, _, relres = _solve_one(S, alpha @ loads, _reference_inverse(Avals, N),
                              tol)
    return CorrectorField(x.reshape((N,) * A.d), N, relres)


def effective_matrix(A: CoefficientField, N: int,
                     tol: float = 1e-10) -> EffectiveMatrix:
    """Assemble Abar column by column from the d coordinate correctors."""
    A = _prepared(A, N)
    d = A.d
    S, loads, corner_nodes, Avals = _assemble(A, N)
    precond = _reference_inverse(Avals, N)
    AT = np.swapaxes(Avals, -1, -2)
    Abar_T = np.zeros((d, d))
    residuals = np.zeros(d)
    iterations = np.zeros(d, dtype=int)
    for j in range(d):
        chi, iterations[j], residuals[j] = _solve_one(S, loads[j], precond,
                                                      tol)
        grad = _element_avg_gradient(chi, corner_nodes, d, N)
        grad[:, j] += 1.0
        flux = np.einsum("ekl,el->ek", AT, grad)
        Abar_T[:, j] = flux.mean(axis=0)
    return EffectiveMatrix(Abar_T.T, N, residuals, iterations)


def voigt_reuss_bounds(A: CoefficientField, N: int):
    """(harmonic, arithmetic) matrix means over the element samples."""
    A = _unit_periodize(A)
    Avals = _element_coefficients(A, N)
    arith = Avals.mean(axis=0)
    harm = np.linalg.inv(np.linalg.inv(Avals).mean(axis=0))
    return harm, arith
