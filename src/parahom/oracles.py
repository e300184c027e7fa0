"""Closed-form constant-coefficient references (method of images).

Everything here is independent of the grid solver: free-space Gaussian
kernels, the image-subtracted half-space Green function, the half-space
boundary kernel density and its cube integrals by erf-reduced quadrature.
These anchor the accuracy tests of the discrete caloric-measure pipeline.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

__all__ = [
    "gauss_heat_kernel",
    "halfspace_green",
    "halfspace_kernel",
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


def halfspace_green(x, lam, t, z, mu, tau):
    """Dirichlet Green function of {lam > 0}: source minus mirror image.

    x, z are the tangential coordinates (arrays with matching last axis,
    or scalars for n = 1); lam, mu the heights; t, tau the times.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    dt = np.asarray(t, dtype=float) - np.asarray(tau, dtype=float)
    dx2 = np.sum((x - z) ** 2, axis=-1)
    n = x.shape[-1]
    d = n + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tt = np.maximum(dt, 1e-300)
        direct = np.exp(-(dx2 + (lam - mu) ** 2) / (4.0 * tt))
        mirror = np.exp(-(dx2 + (lam + mu) ** 2) / (4.0 * tt))
        val = (4.0 * np.pi * tt) ** (-d / 2.0) * (direct - mirror)
    return np.where(dt > 0, val, 0.0)


def halfspace_kernel(z, lam, tau, y, s):
    """Caloric-measure density of the half space at boundary point (y, s).

    K(Z, tau; y, s) = lam / (tau - s) * (4 pi (tau - s))^{-(n+1)/2}
                      * exp(-(|z - y|^2 + lam^2) / (4 (tau - s)))
    for s < tau, zero otherwise.  Integrates to one over the boundary:
    constants are caloric.  (Equivalently the boundary trace limit
    G(Z, tau; y, s, mu)/mu as mu -> 0.)
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dt = np.asarray(tau, dtype=float) - np.asarray(s, dtype=float)
    dx2 = np.sum((z - y) ** 2, axis=-1)
    n = z.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tt = np.maximum(dt, 1e-300)
        val = lam / tt * (4.0 * np.pi * tt) ** (-(n + 1) / 2.0) \
            * np.exp(-(dx2 + lam * lam) / (4.0 * tt))
    return np.where(dt > 0, val, 0.0)


def _erf_box_factor(z, x0, r, dt):
    """Product over tangential axes of the x-integrated Gaussian factor."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    w = np.sqrt(4.0 * dt)
    fac = 1.0
    for zi, xi in zip(z, x0):
        fac *= 0.5 * (erf((zi - xi + r) / w) - erf((zi - xi - r) / w))
    return fac


def halfspace_measure(z, lam, tau, x0, t0, r):
    """omega^{(Z, tau)}(Q_r(x0, t0)) by exact-in-x erf reduction + 1d quadrature."""
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
