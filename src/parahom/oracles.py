"""Closed-form constant-coefficient references (method of images).

Everything here is independent of the grid solver: the free-space Gaussian
kernel, and the half-space caloric measure of a cube and its cell average
by erf-reduced quadrature.  The half-space Green function and boundary
kernel density are closed forms of the Gaussian (source minus mirror
image, and lam / (tau - s) times the Gaussian at the boundary point).
These anchor the accuracy tests of the discrete caloric-measure pipeline.

scipy.integrate (`quad`) and scipy.special (`erf`) are imported inside the
functions that call them, not at module level.  scipy.integrate pulls in
scipy.optimize, spatial, fft and constants, and of the CLI runs only the
sweep's oracle rows reach this code, so `import parahom` does not load
them and `parahom cell` and `parahom homogenize` never load scipy.integrate.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gauss_heat_kernel",
    "halfspace_measure",
    "halfspace_kernel_cell_average",
]


def gauss_heat_kernel(X, t):
    """Free-space kernel (4 pi t)^{-d/2} exp(-|X|^2 / 4t), d the last axis
    of X; zero for t <= 0."""
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    d = X.shape[-1]
    r2 = np.sum(X * X, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(t > 0,
                       (4.0 * np.pi * np.maximum(t, 1e-300)) ** (-d / 2.0)
                       * np.exp(-r2 / (4.0 * np.maximum(t, 1e-300))),
                       0.0)
    return val


def _erf_box_factor(z, x0, r, dt):
    """Product over tangential axes of the x-integrated Gaussian factor."""
    from scipy.special import erf

    z = np.atleast_1d(np.asarray(z, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    w = np.sqrt(4.0 * dt)
    fac = 1.0
    for zi, xi in zip(z, x0):
        fac *= 0.5 * (erf((zi - xi + r) / w) - erf((zi - xi - r) / w))
    return fac


def halfspace_measure(z, lam, tau, x0, t0, r):
    """omega^{(Z, tau)}(Q_r(x0, t0)) by exact-in-x erf reduction + 1d quadrature."""
    from scipy.integrate import quad

    s_lo = t0 - r * r
    s_hi = min(t0 + r * r, tau)
    if s_hi <= s_lo:
        return 0.0

    def integrand(s):
        dt = tau - s
        if dt <= 0:
            return 0.0
        k_t = lam * dt ** -1.5 * (4.0 * np.pi) ** -0.5 \
            * np.exp(-lam * lam / (4.0 * dt))
        return k_t * _erf_box_factor(z, x0, r, dt)

    val, _ = quad(integrand, s_lo, s_hi, limit=200)
    return float(val)


def halfspace_kernel_cell_average(z, lam, tau, x0, t0, r):
    """omega(Q_r)/|Q_r| for comparison with per-cell density estimates."""
    n = np.atleast_1d(np.asarray(x0, dtype=float)).size
    vol = (2.0 * r) ** n * 2.0 * r * r
    return halfspace_measure(z, lam, tau, x0, t0, r) / vol
