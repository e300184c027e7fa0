"""Non-tangential maximal operator and boundary L^p norms.

The cone supremum is a direct scan over grid layers: for each height the
parabolic cone section is an ellipse in (x, t), swept as a sliding time-max
per tangential offset (O(cells per cone) work per boundary cell, done in C
by ndimage).  Per-boundary-cell sups are independent and parallelizable;
all inputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Sequence

import numpy as np
from scipy.ndimage import maximum_filter1d

from .geometry import GraphDomain, LipschitzCylinder
from .pde import BoundaryData, ScalarField, SpaceTimeGrid, solve_dirichlet

__all__ = [
    "BoundaryField",
    "nontangential_max",
    "nontangential_max_cylinder",
    "truncated_vertical_max",
    "lp_boundary_norm",
    "lateral_norm_cylinder",
    "solvability_constant",
]


@dataclass(frozen=True)
class BoundaryField:
    """Values on the lateral-boundary grid (tangential cells x time levels).

    weights are the per-cell surface measures (sigma per tangential cell);
    the time measure is the uniform step dt.  fallback marks cells where an
    empty truncated cone forced the first-layer trace.
    """

    values: np.ndarray          # (nt+1, *tangential shape)
    weights: np.ndarray         # (*tangential shape,)
    dt: float
    fallback: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != v.shape[1:]:
            raise ValueError("weights must match the tangential shape")
        if np.any(w <= 0):
            raise ValueError("boundary weights must be positive")
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary field has non-finite values")
        fb = self.fallback
        fb = np.zeros(v.shape[1:], dtype=bool) if fb is None else \
            np.asarray(fb, dtype=bool)
        v.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "fallback", fb)


def _cone_sup(absvals: np.ndarray, h_tang: Sequence[float], dt: float,
              h_depth: float, eta: float, truncation=None):
    """Cone suprema over a (nt+1, *tang, depth) block of |u|.

    Layer l sits at depth (l + 1/2) h_depth; its cone section admits
    tangential offsets m with |m . h| < rho and times within
    rho * sqrt(rho^2 - |dx|^2) of the vertex, rho = eta * depth.
    """
    nt1 = absvals.shape[0]
    tang_shape = absvals.shape[1:-1]
    nlayers = absvals.shape[-1]
    out = np.zeros((nt1,) + tang_shape)
    fallback = np.zeros(tang_shape, dtype=bool)
    ndim_t = len(tang_shape)

    used_any = False
    for l in range(nlayers):
        lam = (l + 0.5) * h_depth
        if truncation is not None and lam >= truncation:
            break
        rho = eta * lam
        layer = absvals[..., l]
        filtered_cache = {}
        max_off = [min(int(np.floor(rho / h)), n - 1)
                   for h, n in zip(h_tang, tang_shape)]
        for offs in product(*[range(-mo, mo + 1) for mo in max_off]):
            dx2 = sum((o * h) ** 2 for o, h in zip(offs, h_tang))
            if dx2 >= rho * rho:
                continue
            used_any = True
            win = rho * np.sqrt(rho * rho - dx2)
            w = min(int(np.floor(win / dt)), nt1 - 1)
            if w not in filtered_cache:
                filtered_cache[w] = maximum_filter1d(
                    layer, size=2 * w + 1, axis=0, mode="nearest")
            f = filtered_cache[w]
            src = [slice(None)]
            dst = [slice(None)]
            for o, n in zip(offs, tang_shape):
                if o >= 0:
                    src.append(slice(o, n))
                    dst.append(slice(0, n - o))
                else:
                    src.append(slice(0, n + o))
                    dst.append(slice(-o, n))
            view = out[tuple(dst)]
            np.maximum(view, f[tuple(src)], out=view)
    if not used_any:
        # truncated below the first layer: fall back to the first-layer trace
        out = absvals[..., 0].copy()
        fallback[...] = True
    return out, fallback


def nontangential_max(u: ScalarField, eta: float, dom: GraphDomain,
                      truncation=None) -> BoundaryField:
    """N(u) on the flattened lateral boundary of a graph-domain solve."""
    if eta <= dom.m:
        raise ValueError(
            f"cone opening {eta} must exceed the Lipschitz constant {dom.m}")
    grid = u.grid
    if not grid.is_uniform:
        raise ValueError("the cone scan needs a uniform grid")
    vals, fallback = _cone_sup(np.abs(u.values), grid.h[:-1], grid.dt,
                               grid.h[-1], eta, truncation)
    g = dom.grad_phi(grid.tangential_centers())
    area = np.sqrt(1.0 + np.sum(g * g, axis=1)).reshape(vals.shape[1:])
    weights = area * float(np.prod(grid.h[:-1]))
    return BoundaryField(vals, weights, grid.dt, fallback,
                         {"eta": eta, "kind": "graph"})


def nontangential_max_cylinder(u: ScalarField, eta: float,
                               dom: LipschitzCylinder
                               ) -> Dict[tuple, BoundaryField]:
    """Per-face N(u) for a box-cylinder solve: each face is a local graph.

    The depth coordinate of a face is the distance into the domain; faces
    are returned keyed by (axis, side).
    """
    grid = u.grid
    d = grid.d
    out = {}
    for axis in range(d):
        for side in (0, 1):
            v = np.moveaxis(u.values, 1 + axis, d)   # depth last
            if side == 1:
                v = np.flip(v, axis=d)
            tang_axes = [k for k in range(d) if k != axis]
            h_tang = [grid.h[k] for k in tang_axes]
            vals, fb = _cone_sup(np.abs(v), h_tang, grid.dt,
                                 grid.h[axis], eta)
            weights = np.full(vals.shape[1:], float(np.prod(h_tang)))
            out[(axis, side)] = BoundaryField(
                vals, weights, grid.dt, fb,
                {"eta": eta, "kind": "cylinder-face", "axis": axis,
                 "side": side})
    return out


def truncated_vertical_max(u: ScalarField, r: float) -> BoundaryField:
    """M_r(u)(x, t) = sup of |u| over the vertical segment 0 < lam < r."""
    grid = u.grid
    lamc = grid.axis_centers(grid.d - 1)
    jr = int(np.sum(lamc < r))
    if jr < 1:
        raise ValueError("truncation height r does not reach the first layer")
    vals = np.abs(u.values[..., :jr]).max(axis=-1)
    w = grid.axis_spacings(0)
    for k in range(1, grid.d - 1):
        w = np.multiply.outer(w, grid.axis_spacings(k))
    weights = np.broadcast_to(w, vals.shape[1:]).copy()
    offset = r - float(lamc[jr - 1])
    return BoundaryField(vals, weights, grid.dt, None,
                         {"r": r, "grid_offset": offset})


def lp_boundary_norm(g: BoundaryField, p: float) -> float:
    """Weighted L^p norm over the lateral boundary, measure sigma(x) dt."""
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
    total = float(np.sum(np.abs(g.values) ** p * g.weights) * g.dt)
    return total ** (1.0 / p)


def lateral_norm_cylinder(fields: Dict[tuple, BoundaryField], p: float) -> float:
    """Combine per-face norms into the full lateral-boundary norm."""
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
    return float(sum(lp_boundary_norm(f, p) ** p
                     for f in fields.values()) ** (1.0 / p))


def _data_norm_graph(f: BoundaryData, grid: SpaceTimeGrid,
                     dom: GraphDomain, p: float) -> float:
    pts = grid.tangential_centers()
    g = dom.grad_phi(pts)
    w = np.sqrt(1.0 + np.sum(g * g, axis=1)) * float(np.prod(grid.h[:-1]))
    total = 0.0
    for t in grid.times():
        vals = np.abs(np.asarray(f(pts, t), dtype=float))
        total += float(np.sum(vals ** p * w)) * grid.dt
    return total ** (1.0 / p)


def solvability_constant(A, dom: GraphDomain, family: Sequence[BoundaryData],
                         p: float, grid: SpaceTimeGrid, eta: float):
    """Empirical ratios ||N(u_f)||_p / ||f||_p over a family of data.

    Returns (rows, family_max); each row is a dict with the datum label,
    both norms and their ratio.  The family maximum is the measured
    solvability constant for this configuration.
    """
    rows = []
    worst = 0.0
    for f in family:
        u = solve_dirichlet(A, dom, f, grid)
        N = nontangential_max(u, eta, dom)
        nn = lp_boundary_norm(N, p)
        fn = _data_norm_graph(f, grid, dom, p)
        ratio = nn / fn if fn > 0 else float("inf")
        rows.append({"data": f.label, "N_norm": nn, "f_norm": fn,
                     "ratio": ratio})
        worst = max(worst, ratio)
    return rows, worst
