"""Non-tangential maximal operator and boundary L^p norms.

N(u) and the boundary data f live on the lateral faces of
`pde.lateral_faces`, the faces the solves bind their data to, for every
domain: both are {(axis, side): BoundaryField} dicts (a graph has the one
key (d-1, 0), a cylinder every face of its box), and `lp_boundary_norm`
takes such a dict, (sum_f ||f||_p^p)^(1/p).  So ||N(u)||_p and ||f||_p
share faces, surface weights, time levels and summation.

The scan below is the toolkit's one cone definition.  Its sections are
balls of the parabolic max-norm max(|x|_inf, |t|^(1/2)): at depth lam from
a face the cone of opening eta admits offsets |dx_i| < rho on every
tangential axis and times |s - t| <= rho^2, rho = eta lam.  Cones built on
equivalent parabolic norms give comparable L^p norms of N(u) (C. Fefferman
and E. M. Stein, Acta Math. 129, 1972, section 7): this box holds the
ellipse |dx|^2 < rho^2, |s - t| <= rho sqrt(rho^2 - |dx|^2) of the root
norm, and lies in the ellipse of c rho, c = 1.28 for d = 2 and 1.56 for
d = 3.  Cones stop at the face's chart height r0 (a graph face has none);
a face with no cell layer below r0 raises ValueError.

The cone supremum is a recursion over depth.  A box is a product of
intervals, and running maxima over intervals of a clamped grid compose,
their radii adding (a dilation by a Minkowski sum; J. Serra, Image
Analysis and Mathematical Morphology, 1982): each layer's box is the box
of the layer nearer the face grown by their difference.  Each face reads
|u| on just the layers its cones reach, deepest first and one at a time,
into reused C-ordered buffers laid out (time, *tangential) like the N(u)
they become (a layer of a face normal to the first axis is then one
contiguous block of u); the running max is dilated by each layer's growth
of the box and joined with that layer.  A dilation along one axis is one
call of this module's `maximum_filter1d`, so perfbench's
`maximal.filter_calls` counts dilations: at most d per layer.  It takes
radius r as r clamped passes of radius 1 on numpy views, so its cost grows
with r; a layer grows the box by a cell or two per axis (radii 1-2 in the
default homogenize run), where the passes beat a filter whose cost does
not grow with r (van Herk, Pattern Recogn. Lett. 13, 1992) but carries a
fixed overhead per call.  The module imports no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .geometry import GraphDomain
from .pde import (BoundaryData, LateralFace, ScalarField, SpaceTimeGrid,
                  _joined_points, lateral_faces)

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


def maximum_filter1d(a, size, axis, mode, output):
    """Running max of a over the windows of size = 2r + 1 cells along axis,
    clamped at the ends (mode "nearest", the only one), written to output,
    which must not share memory with a.

    Radius r is r passes of radius 1, each two np.maximum calls on views of
    the pass's input shifted by one cell; windows of clamped grids compose,
    and max is exact, so the result is the running max bit for bit.  r > 1
    passes through one scratch array of output's shape.  It stays a
    module-level name that `_cone_sup` looks up in this module's globals,
    so perfbench's wrapper of `maximal.maximum_filter1d` sees every call,
    one per dilation.
    """
    if mode != "nearest":
        raise ValueError(f"only the clamped mode 'nearest', not {mode!r}")
    r = size // 2
    src = np.moveaxis(a, axis, 0)
    out = np.moveaxis(output, axis, 0)
    scratch = np.empty_like(out) if r > 1 else None
    if not r:
        np.copyto(out, src)
    for k in range(r):
        dst = out if (r - 1 - k) % 2 == 0 else scratch
        np.maximum(src[1:], src[:-1], out=dst[1:])      # cells i - 1, i
        dst[0] = src[0]
        np.maximum(dst[:-1], src[1:], out=dst[:-1])     # and cell i + 1
        src = dst
    return output


def _cone_sup(v: np.ndarray, rho: Sequence[float], h_tang: Sequence[float],
              dt: float) -> np.ndarray:
    """Cone suprema of |u| over the layers of a (depth, nt+1, *tang) view v
    of u, time first, layer l's cone having the radius rho[l] (not
    decreasing with l); the result is a C-ordered (nt+1, *tang) array.

    Layer l's box section has the radius reach(l): the largest s <= nt with
    s * dt <= rho[l]^2 in time, and the largest offset o <= n_i - 1 with
    o * h_i < rho[l] on each tangential axis.  With D_r the box
    dilation of radii r, G starts as |u| on the deepest layer,
    G <- max(|u_l|, D_{reach(l+1) - reach(l)}(G)) on each layer up to the
    face, and the result is D_{reach(0)}(G).  Each nonzero radius on an
    axis is one maximum_filter1d call; |v[l]| and G live in three C-ordered
    buffers of one layer's shape, so the scan copies no more than one layer
    at a time.  A rho that underflows to 0 admits no cell: its layers,
    the shallowest, are skipped.
    """
    nt1, *n_tang = v.shape[1:]
    reach = np.stack(
        [np.searchsorted(np.arange(nt1) * dt, [r * r for r in rho],
                         side="right") - 1]
        + [np.searchsorted(np.arange(n) * h, rho) - 1
           for n, h in zip(n_tang, h_tang)], axis=1)       # (layer, axis)
    layer, *bufs = [np.empty(v.shape[1:]) for _ in range(3)]

    def dilate(g, radii):
        for axis, r in enumerate(radii):
            if r:
                g = maximum_filter1d(
                    g, size=2 * r + 1, axis=axis, mode="nearest",
                    output=bufs[1] if g is bufs[0] else bufs[0])
        return g

    first = int(np.count_nonzero(reach.min(axis=1) < 0))
    if first == len(rho):
        return np.zeros(v.shape[1:])
    g = np.abs(v[len(rho) - 1], out=bufs[0])
    for l in range(len(rho) - 2, first - 1, -1):
        g = dilate(g, reach[l + 1] - reach[l])
        np.maximum(g, np.abs(v[l], out=layer), out=g)
    return dilate(g, reach[first])


def _face_max(u: ScalarField, eta: float, m: float,
              face: LateralFace) -> BoundaryField:
    """N(u) on one lateral face, with the depth from the face as lam.

    Cones open by eta, which must exceed the domain's Lipschitz constant m
    (0 for a cylinder), and stop at the face's chart height r0, which must
    lie above the first cell layer.  Only the layers they reach are read,
    one at a time, by `_cone_sup`'s recursion, with rho = eta lam per layer.
    """
    if eta <= m:
        raise ValueError(
            f"cone opening {eta} must exceed the Lipschitz constant {m}")
    grid = u.grid
    axis, side = face.key
    h = list(grid.h)                # a graded grid raises ValueError here
    h_depth = h.pop(axis)
    lam = (np.arange(grid.shape[axis]) + 0.5) * h_depth
    nlayers = lam.size if face.r0 is None else int(np.sum(lam < face.r0))
    if not nlayers:
        raise ValueError(
            f"face {face.key}: no cell layer below the chart height "
            f"r0 = {face.r0}; the first layer sits at depth {lam[0]}")
    v = np.moveaxis(u.values, 1 + axis, 0)      # (depth, time, *tang)
    if side == 1:
        v = v[::-1]
    # a C-ordered (nt+1, *tang) buffer: np.sum in the L^p norms adds in
    # memory order
    return BoundaryField(
        _cone_sup(v, [eta * x for x in lam[:nlayers].tolist()], h, grid.dt),
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
    boundary.  Each cone section is the box |dx_i| < rho, |s - t| <= rho^2,
    rho = eta lam, and each face is scanned by one recursion over its
    layers (see the module docstring).  A face whose first cell layer sits
    at or above r0, and a non-finite eta, raise ValueError; a finite eta of
    any size gives cones that cover the whole grid.
    """
    if not np.isfinite(eta):
        raise ValueError(f"cone opening eta must be finite, got {eta}")
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
    and time levels that N(u) is measured on; f is evaluated once per time
    level, on the points of every face."""
    faces = lateral_faces(grid, dom)
    points, spans = _joined_points(faces)
    vals = np.array([f(points, t) for t in grid.times()])
    return lp_boundary_norm(
        {face.key: BoundaryField(
            np.abs(vals[:, spans[face.key]])
            .reshape((-1,) + face.weights.shape), face.weights, grid.dt)
         for face in faces}, p)
