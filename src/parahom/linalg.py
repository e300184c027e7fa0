"""Conjugate-gradient solver used by the periodic cell problems."""

from __future__ import annotations

import numpy as np

__all__ = ["pcg", "ConvergenceError"]


class ConvergenceError(RuntimeError):
    def __init__(self, iterations, relres):
        self.iterations = iterations
        self.relres = relres
        super().__init__(
            f"CG did not reach tolerance after {iterations} iterations "
            f"(relative residual {relres:.3e})")


def pcg(matvec, b, tol, maxiter, precond, deflate):
    """Preconditioned conjugate gradient for SPSD systems with a known
    nullspace vector, started from zero.

    matvec   -- callable v -> A v
    precond  -- callable r -> M^-1 r
    deflate  -- nullspace vector to project out of b, iterates and residuals
                (the constant mode of periodic problems)
    Stops once the relative residual is at most tol.  Returns (x,
    iterations, relres).  Raises ConvergenceError after maxiter iterations.
    """
    v = deflate / np.linalg.norm(deflate)

    def project(w):
        return w - v * (v @ w)

    b = project(np.asarray(b, dtype=float))
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = project(b - matvec(x))
    z = project(precond(r))
    p = z.copy()
    rz = r @ z
    relres = np.linalg.norm(r) / bnorm
    for k in range(1, maxiter + 1):
        Ap = project(matvec(p))
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        relres = np.linalg.norm(r) / bnorm
        if relres <= tol:
            return project(x), k, relres
        z = project(precond(r))
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(maxiter, relres)
