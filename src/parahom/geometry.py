"""Parabolic metric structure: norms, cubes, Lipschitz graph domains.

Nontangential cones are defined once, by the cone scan in `maximal`.

The anisotropic geometry (space scales like rho, time like rho^2) underlies
every estimate in the toolkit.  All objects here are immutable after
construction and all operations are pure functions; they are safe to share
across concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "parabolic_norm",
    "ParabolicPoint",
    "ParabolicCube",
    "GraphDomain",
    "LipschitzCylinder",
    "flatten_pullback",
]


def parabolic_norm(X, t):
    """Anisotropic norm rho of a space-time offset (X, t).

    rho is the unique nonnegative root of t^2/rho^4 + |X|^2/rho^2 = 1,
    computed in closed form as rho^2 = (|X|^2 + sqrt(|X|^4 + 4 t^2)) / 2.
    Vectorized: X may have shape (..., k) and t shape (...,).

    Satisfies the scaling law rho(g*X, g^2*t) = g * rho(X, t) for g > 0,
    rho = 0 iff (X, t) = (0, 0), and the quasi-triangle inequality
    ||a + b|| <= 2 (||a|| + ||b||).
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    if X.ndim == 0:
        X = X[None]
    x2 = np.sum(X * X, axis=-1)
    rho2 = 0.5 * (x2 + np.sqrt(x2 * x2 + 4.0 * t * t))
    return np.sqrt(rho2)


@dataclass(frozen=True)
class ParabolicPoint:
    """Point (X, t) with X in R^d, d = n+1 spatial coordinates; X is a
    frozen copy of the coordinates given."""

    X: np.ndarray
    t: float

    def __post_init__(self):
        X = np.atleast_1d(np.array(self.X, dtype=float))
        if X.ndim != 1 or X.size < 1:
            raise ValueError("X must be a 1-d coordinate vector")
        if not (np.all(np.isfinite(X)) and np.isfinite(self.t)):
            raise ValueError("coordinates must be finite")
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True)
class ParabolicCube:
    """Boundary parabolic cube Q_r(x, t): |y_i - x_i| < r, |s - t| < r^2,
    with its center x in R^n on the boundary plane; center_x is a frozen
    copy of the center given."""

    center_x: np.ndarray
    center_t: float
    side: float

    def __post_init__(self):
        cx = np.atleast_1d(np.array(self.center_x, dtype=float))
        if not (np.all(np.isfinite(cx)) and np.isfinite(self.center_t)
                and np.isfinite(self.side)):
            raise ValueError("cube center and side must be finite")
        if self.side <= 0:
            raise ValueError("side must be positive")
        cx.flags.writeable = False
        object.__setattr__(self, "center_x", cx)
        object.__setattr__(self, "center_t", float(self.center_t))
        object.__setattr__(self, "side", float(self.side))

    def scaled(self, factor: float) -> "ParabolicCube":
        return ParabolicCube(self.center_x, self.center_t,
                             self.side * factor)


@dataclass(frozen=True)
class GraphDomain:
    """Region above a Lipschitz graph, D = {(x, t, lam): lam > phi(x)}.

    The time direction is free (unbounded cylinder); the lateral boundary is
    {lam = phi(x)}.  phi is a vectorized evaluator, or None for the flat
    graph phi = 0.  At construction phi is sampled on a uniform grid over
    `box`, and the Lipschitz bound |phi(x) - phi(y)| <= m |x - y| is
    verified on all neighboring grid-point pairs.
    """

    m: float
    box: tuple                      # ((lo, hi), ...) one pair per x-axis
    phi: Optional[Callable] = None  # closed-form evaluator, vectorized
    table_resolution: int = 257

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m >= 0):
            raise ValueError("Lipschitz constant must be finite and "
                             f"nonnegative, got {self.m!r}")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if any(hi <= lo for lo, hi in box):
            raise ValueError("box intervals must be nonempty")
        object.__setattr__(self, "box", box)
        grids = [np.linspace(lo, hi, self.table_resolution) for lo, hi in box]
        if self.phi is None:
            vals = np.zeros([g.size for g in grids])
        else:
            mesh = np.meshgrid(*grids, indexing="ij")
            pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
            vals = np.asarray(self.phi(pts), dtype=float).reshape(
                [g.size for g in grids])
        self._check_lipschitz(grids, vals)

    def _check_lipschitz(self, grids, vals):
        tol = 1e-12 * max(1.0, self.m)
        for ax, g in enumerate(grids):
            h = g[1] - g[0]
            slope = np.abs(np.diff(vals, axis=ax)) / h
            worst = slope.max() if slope.size else 0.0
            if worst > self.m + tol:
                idx = np.unravel_index(np.argmax(slope), slope.shape)
                raise ValueError(
                    f"Lipschitz bound m={self.m} violated along axis {ax} "
                    f"at grid index {idx}: local slope {worst:.6g}")

    @property
    def n(self) -> int:
        return len(self.box)

    def phi_values(self, x) -> np.ndarray:
        """phi at points x, shape (m, n) or (m,) for n = 1."""
        x = np.asarray(x, dtype=float)
        if self.n == 1 and x.ndim == 1:
            x = x[:, None]
        if self.phi is None:
            return np.zeros(x.shape[:-1])
        return np.asarray(self.phi(x), dtype=float)

    def grad_phi(self, x) -> np.ndarray:
        """Gradient of phi by central differences, one-sided at box edges.

        The step is the table spacing of the shortest box side.  A flat
        graph has zero gradient everywhere; otherwise every point must lie
        in the box, where the Lipschitz bound was verified.
        """
        x = np.asarray(x, dtype=float)
        if self.n == 1 and x.ndim == 1:
            x = x[:, None]
        if self.phi is None:
            return np.zeros_like(x)
        h = min((hi - lo) for lo, hi in self.box) / (self.table_resolution - 1)
        g = np.empty_like(x)
        for ax in range(self.n):
            lo, hi = self.box[ax]
            outside = (x[:, ax] < lo) | (x[:, ax] > hi)
            if outside.any():
                raise ValueError(
                    f"grad_phi at x{ax + 1} = {x[outside, ax][0]:.6g}: the "
                    f"graph is only defined on its box {self.box}")
            xp = x.copy()
            xm = x.copy()
            xp[:, ax] = np.minimum(x[:, ax] + h, hi)
            xm[:, ax] = np.maximum(x[:, ax] - h, lo)
            dx = xp[:, ax] - xm[:, ax]
            g[:, ax] = (self.phi_values(xp) - self.phi_values(xm)) / dx
        return g

    @classmethod
    def from_json(cls, spec) -> "GraphDomain":
        """Load from {"phi": {"kind": ..., ...}, "m": float, "box": [...]}.

        A "table" phi ({"grids": [...], "values": [...]}) is read by one
        linear `RegularGridInterpolator` in any dimension.
        """
        if isinstance(spec, str):
            spec = json.loads(spec)
        box = [tuple(iv) for iv in spec["box"]]
        m = float(spec["m"])
        pspec = spec.get("phi", {"kind": "zero"})
        kind = pspec.get("kind", "zero")
        if kind == "zero":
            return cls(m=m, box=box, phi=None)
        if kind == "closed_form":
            from .coeffs import compile_expression

            fn = compile_expression(pspec["expr"], len(box))
            return cls(m=m, box=box, phi=lambda x: fn(np.asarray(x)))
        if kind == "table":
            from scipy.interpolate import RegularGridInterpolator

            grids = [np.asarray(g, dtype=float) for g in pspec["grids"]]
            phi = RegularGridInterpolator(
                grids, np.asarray(pspec["values"], dtype=float),
                method="linear", bounds_error=False, fill_value=None)
            return cls(m=m, box=box, phi=phi,
                       table_resolution=max(65, grids[0].size))
        raise ValueError(f"unknown phi kind {kind!r}")


@dataclass(frozen=True)
class LipschitzCylinder:
    """Bounded cylinder Omega x (0, T) with a box base.

    The base is an axis-aligned box, the simplest Lipschitz domain; each face
    is a trivial (m=0, r0=min side/2) chart; `pde.lateral_faces` lists the
    faces.
    """

    base_box: tuple     # ((lo, hi), ...) one pair per spatial axis, d entries
    T: float

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.base_box)
        if not np.all(np.isfinite(box)):
            raise ValueError("base box bounds must be finite")
        if any(hi <= lo for lo, hi in box):
            raise ValueError("base box intervals must be nonempty")
        T = float(self.T)
        if not (np.isfinite(T) and T > 0):
            raise ValueError(f"final time T must be finite and positive, "
                             f"got {T}")
        object.__setattr__(self, "base_box", box)
        object.__setattr__(self, "T", T)

    @property
    def r0(self) -> float:
        return 0.5 * min(hi - lo for lo, hi in self.base_box)

    @classmethod
    def from_json(cls, spec) -> "LipschitzCylinder":
        if isinstance(spec, str):
            spec = json.loads(spec)
        return cls(base_box=[tuple(iv) for iv in spec["base_box"]],
                   T=float(spec["T"]))


def flatten_pullback(dom: GraphDomain, A):
    """Pull a coefficient field back to the half space {lam > 0}.

    Under the shear (x, lam) -> (x, lam - phi(x)) a solution of the
    divergence-form equation with coefficients A becomes a solution on the
    half space with coefficients A~ = J A J^T evaluated at the preimage,
    where J = [[I, 0], [-grad phi, 1]].  det J = 1, so no volume factor.

    The ellipticity constant degrades by at most the largest eigenvalue of
    J J^T, which is bounded by 1 + m^2 + m sqrt(2 + m^2).
    """
    from .coeffs import CoefficientField

    d = A.d
    if dom.n != d - 1:
        raise ValueError(f"domain has n={dom.n} but field has d={d}")

    def pulled(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        pts = X[None, :] if single else X.reshape(-1, d)
        x, lam = pts[:, :-1], pts[:, -1]
        g = dom.grad_phi(x)
        src = np.concatenate(
            [x, (lam + dom.phi_values(x))[:, None]], axis=1)
        base = A(src)
        J = np.zeros((pts.shape[0], d, d))
        for i in range(d - 1):
            J[:, i, i] = 1.0
        J[:, d - 1, :-1] = -g
        J[:, d - 1, d - 1] = 1.0
        out = J @ base @ np.swapaxes(J, 1, 2)
        out = 0.5 * (out + np.swapaxes(out, 1, 2))
        if single:
            return out[0]
        return out.reshape(X.shape[:-1] + (d, d))

    m = dom.m
    growth = 1.0 + m * m + m * np.sqrt(2.0 + m * m)
    identity_map = dom.phi is None
    return CoefficientField(
        evaluator=pulled if not identity_map else A.evaluator,
        d=d,
        lam=A.lam * growth if not identity_map else A.lam,
        period="none" if not identity_map else A.period,
        period_scale=A.period_scale,
        label=f"flatten({A.label})",
    )
