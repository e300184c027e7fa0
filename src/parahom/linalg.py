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
