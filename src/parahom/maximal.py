"""Non-tangential maximal operator and boundary L^p norms.

N(u) and the boundary data f live on the lateral faces of
`pde.lateral_faces`, the faces the solves bind their data to, for every
domain: both are {(axis, side): BoundaryField} dicts (a graph has the one
key (d-1, 0), a cylinder every face of its box), and `lp_boundary_norm`
takes such a dict, (sum_f ||f||_p^p)^(1/p).  So ||N(u)||_p and ||f||_p
share faces, surface weights, time levels and summation.

The scan below is the toolkit's one cone definition: at depth lam from a
face the cone of opening eta admits tangential offsets |dx| < rho and times
|s - t| <= rho sqrt(rho^2 - |dx|^2), rho = eta lam.  Cones stop at the
face's chart height r0 (a graph face has none); a face with no cell layer
below r0 raises ValueError.

The cone supremum is a direct scan over grid layers: for each height the
parabolic cone section is an ellipse in (x, t), swept as a sliding time-max
per tangential offset (O(cells per cone) work per boundary cell, done in C
by ndimage and numpy).  Each face copies |u| on just the layers its cones
reach into one slab laid out (layer, *tangential, time), time last, so the
time-max filters run along contiguous rows and every tangential offset
shifts whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Sequence

import numpy as np
from scipy.ndimage import maximum_filter1d

from .geometry import GraphDomain
from .pde import (BoundaryData, LateralFace, ScalarField, SpaceTimeGrid,
                  lateral_faces)

__all__ = [
    "BoundaryField",
    "nontangential_max",
    "lp_boundary_norm",
    "boundary_data_norm",
]


@dataclass(frozen=True)
class BoundaryField:
    """Values on the lateral-boundary grid (tangential cells x time levels).

    weights are the per-cell surface measures (sigma per tangential cell);
    the time measure is the uniform step dt.
    """

    values: np.ndarray          # (nt+1, *tangential shape)
    weights: np.ndarray         # (*tangential shape,)
    dt: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != v.shape[1:]:
            raise ValueError("weights must match the tangential shape")
        if np.any(w <= 0):
            raise ValueError("boundary weights must be positive")
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary field has non-finite values")
        v.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)


def _cone_sup(slab: np.ndarray, h_tang: Sequence[float], dt: float,
              h_depth: float, eta: float) -> np.ndarray:
    """Cone suprema over a (layer, *tang, nt+1) slab of |u|, time last.

    Layer l sits at depth (l + 1/2) h_depth; its cone section admits
    tangential offsets m with |m . h| < rho and times within
    rho * sqrt(rho^2 - |dx|^2) of the vertex, rho = eta * depth.  Each
    layer's windowed time-max runs along contiguous rows, one filter per
    distinct half-width w (w = 0 is the layer itself), and every offset
    shifts whole rows into the (*tang, nt+1) result.
    """
    tang_shape = slab.shape[1:-1]
    nt1 = slab.shape[-1]
    out = np.zeros(slab.shape[1:])
    for l, layer in enumerate(slab):
        rho = eta * ((l + 0.5) * h_depth)
        filtered = {0: layer}
        max_off = [min(int(np.floor(rho / h)), n - 1)
                   for h, n in zip(h_tang, tang_shape)]
        for offs in product(*[range(-mo, mo + 1) for mo in max_off]):
            dx2 = sum((o * h) ** 2 for o, h in zip(offs, h_tang))
            if dx2 >= rho * rho:
                continue
            win = rho * np.sqrt(rho * rho - dx2)
            w = min(int(np.floor(win / dt)), nt1 - 1)
            if w not in filtered:
                filtered[w] = maximum_filter1d(
                    layer, size=2 * w + 1, axis=-1, mode="nearest")
            src, dst = [], []
            for o, n in zip(offs, tang_shape):
                src.append(slice(max(o, 0), n + min(o, 0)))
                dst.append(slice(max(-o, 0), n - max(o, 0)))
            view = out[tuple(dst)]
            np.maximum(view, filtered[w][tuple(src)], out=view)
    return out


def _face_max(u: ScalarField, eta: float, m: float,
              face: LateralFace) -> BoundaryField:
    """N(u) on one lateral face, with the depth from the face as lam.

    Cones open by eta, which must exceed the domain's Lipschitz constant m
    (0 for a cylinder), and stop at the face's chart height r0, which must
    lie above the first cell layer.  Only the layers they reach are copied.
    """
    if eta <= m:
        raise ValueError(
            f"cone opening {eta} must exceed the Lipschitz constant {m}")
    grid = u.grid
    if not grid.is_uniform:
        raise ValueError("the cone scan needs a uniform grid")
    axis, side = face.key
    h = list(grid.h)
    h_depth = h.pop(axis)
    lam = (np.arange(grid.shape[axis]) + 0.5) * h_depth
    nlayers = lam.size if face.r0 is None else int(np.sum(lam < face.r0))
    if not nlayers:
        raise ValueError(
            f"face {face.key}: no cell layer below the chart height "
            f"r0 = {face.r0}; the first layer sits at depth {lam[0]}")
    v = np.moveaxis(u.values, (1 + axis, 0), (0, -1))   # (depth, *tang, time)
    if side == 1:
        v = v[::-1]
    # kept alive to the return: freeing it before the copy below raises
    # the homogenize peak RSS by 3 MB
    slab = np.abs(v[:nlayers], order="C")
    vals = _cone_sup(slab, h, grid.dt, h_depth, eta)
    # C order: np.sum in the L^p norms adds in memory order
    return BoundaryField(np.ascontiguousarray(np.moveaxis(vals, -1, 0)),
                         face.weights, grid.dt)


def nontangential_max(u: ScalarField, eta: float,
                      dom) -> Dict[tuple, BoundaryField]:
    """N(u) on every lateral face of dom, keyed by (axis, side).

    A graph domain has the one face (d-1, 0), its flattened bottom, and
    cones open by eta > dom.m through the whole depth.  A box cylinder has
    every face of the grid box, each a local graph of Lipschitz constant 0
    and height dom.r0: lam is the distance into the domain from that face,
    and cones stop at lam = r0, so they never reach the opposite face.
    Corners still measure lam from the face, not the distance to the whole
    boundary.  A face whose first cell layer sits at or above r0 raises
    ValueError.
    """
    m = dom.m if isinstance(dom, GraphDomain) else 0.0
    return {face.key: _face_max(u, eta, m, face)
            for face in lateral_faces(u.grid, dom)}


def lp_boundary_norm(fields: Dict[tuple, BoundaryField], p: float) -> float:
    """L^p norm over the lateral faces, measure sigma(x) dt on each:
    (sum_f ||f||_p^p)^(1/p) with ||f||_p = (sum |v|^p w dt)^(1/p)."""
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
    norms = (float(np.sum(np.abs(g.values) ** p * g.weights) * g.dt)
             ** (1.0 / p) for g in fields.values())
    return float(sum(v ** p for v in norms) ** (1.0 / p))


def boundary_data_norm(f: BoundaryData, dom, grid: SpaceTimeGrid,
                       p: float) -> float:
    """||f||_p on the lateral faces of dom, with the faces, surface weights
    and time levels that N(u) is measured on."""
    return lp_boundary_norm(
        {face.key: BoundaryField(
            np.abs([f(face.points, t).reshape(face.weights.shape)
                    for t in grid.times()]), face.weights, grid.dt)
         for face in lateral_faces(grid, dom)}, p)
