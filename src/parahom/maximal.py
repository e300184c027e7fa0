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

The cone supremum is a scan over grid layers.  Each face copies |u| on
just the layers its cones reach into one slab laid out
(layer, *tangential, time), time last.  At each height the parabolic cone
section is an ellipse in (x, t); along the last tangential axis and time
it is a staircase of boxes |o| <= k_i, |s| <= w_i, w falling as |o|
grows.  A max filter over a union of boxes factors into one-dimensional
running maxima (van Herk, Pattern Recogn. Lett. 13, 1992), so the
staircase max is taken in Horner form, one corner at a time: a small time
widening, a small tangential widening and one np.maximum, each widening a
few flat np.maximum passes over the C-ordered layer.  The section's
common time window is one maximum_filter1d call: it is the one step whose
width is not bounded by a corner's step, the filter's cost does not grow
with that width, and perfbench counts cone-scan work by that call.
Offsets on the other tangential axes (d = 3) shift whole rows of the
staircase max.

scipy.ndimage is imported on the first cone scan, inside this module's
`maximum_filter1d`, so `import parahom` does not load it for runs that
never scan a cone (`parahom cell`, for one).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Sequence

import numpy as np

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


def _pass(y: np.ndarray, out: np.ndarray, n: int, inner: int, a: int,
          b: int) -> np.ndarray:
    """out[p] = max(y[p - a], y[p + b]) along an axis of n cells laid out
    `inner` elements apart, indices clamped to the axis (a + b < n).

    A shift along any axis of a C-ordered array is a fixed flat offset, so
    one flat np.maximum does every cell; the a cells at the start and the b
    at the end of each line, where that pass reads a neighbouring line,
    are then redone from clamped indices.
    """
    yf, of = y.reshape(-1), out.reshape(-1)
    s = (a + b) * inner
    np.maximum(yf[:yf.size - s], yf[s:], out=of[a * inner:of.size - b * inner])
    y3, o3 = y.reshape(-1, n, inner), out.reshape(-1, n, inner)
    if a:
        np.maximum(y3[:, :1], y3[:, b:a + b], out=o3[:, :a])
    if b:
        np.maximum(y3[:, n - a - b:n - a], y3[:, n - 1:], out=o3[:, n - b:])
    return out


def _widen(y: np.ndarray, bufs, n: int, inner: int, c: int,
           r: int) -> np.ndarray:
    """Max of y over r more cells on each side along one axis (laid out as
    in `_pass`), where each window y holds reaches c cells to each side.

    A window m cells wide grows by up to m more in one pass, so a widening
    takes about log2 of its growth in passes; they alternate between the
    two arrays of bufs.
    """
    lo = hi = 0
    while lo < r or hi < r:
        room = min(2 * c + 1 + lo + hi, 2 * r - lo - hi)
        b = min(r - hi, room // 2)
        a = min(r - lo, room - b)
        b = min(r - hi, room - a)
        y = _pass(y, bufs[1] if y is bufs[0] else bufs[0], n, inner, a, b)
        lo, hi = lo + a, hi + b
    return y


def _corners(rho: float, dx2_lead: float, h: float, n: int, dt: float,
             nt1: int) -> list:
    """The staircase of a cone section along the last tangential axis.

    Offsets o >= 0 on that axis, on top of the squared offset dx2_lead on
    the others, are admitted while dx2 < rho^2 and see times within
    w(o) = floor(rho sqrt(rho^2 - dx2) / dt) levels, capped at nt1 - 1.
    w falls as o grows; each (k, w) returned is the last offset k of a run
    of equal w, so the section is the union of boxes |o| <= k, |s| <= w.
    Both floors are clamped before the int conversion, so an opening of
    any finite size gives at most the whole grid.
    """
    corners = []
    for o in range(int(min(np.floor(rho / h), n - 1)) + 1):
        dx2 = dx2_lead + (o * h) ** 2
        if dx2 >= rho * rho:
            break
        w = int(min(np.floor(rho * np.sqrt(rho * rho - dx2) / dt), nt1 - 1))
        if corners and corners[-1][1] == w:
            corners.pop()
        corners.append((o, w))
    return corners


def maximum_filter1d(a, **kwargs):
    """scipy.ndimage.maximum_filter1d, imported on its first call.

    It stays a module-level name that `_staircase` looks up in this
    module's globals, so perfbench's wrapper of `maximal.maximum_filter1d`
    still sees every call.
    """
    from scipy.ndimage import maximum_filter1d as filter1d

    return filter1d(a, **kwargs)


def _staircase(layer: np.ndarray, corners: list, bufs) -> np.ndarray:
    """Max of a (*tang, nt+1) layer over a staircase of `_corners`, in
    Horner form: T_{w_m}(... T_{w_1 - w_2}(X_{k_1}) v X_{k_2} ... v X_{k_m}),
    where X_k is the max within k cells along the last tangential axis and
    T_w the max within w time levels.  Each corner widens the accumulator
    in time by the step down in w, widens X by the step up in k, and joins
    them with one np.maximum.  The last step, the section's common window
    T_{w_m}, is one maximum_filter1d call (none when w_m = 0): no corner's
    step bounds its width, and the filter's cost does not grow with it.
    bufs holds four arrays of the layer's shape.
    """
    n, nt1 = layer.shape[-2:]
    x, acc, k0, w0 = layer, None, 0, 0
    for k, w in corners:
        if acc is not None:
            acc = _widen(acc, bufs[2:4], nt1, 1, 0, w0 - w)
        x = _widen(x, bufs[:2], n, nt1, k0, k - k0)
        acc = x if acc is None else np.maximum(acc, x, out=acc)
        k0, w0 = k, w
    if not w0:
        return acc
    return maximum_filter1d(acc, size=2 * w0 + 1, axis=-1, mode="nearest",
                            output=bufs[3] if acc is bufs[2] else bufs[2])


def _cone_sup(slab: np.ndarray, h_tang: Sequence[float], dt: float,
              h_depth: float, eta: float) -> np.ndarray:
    """Cone suprema over a (layer, *tang, nt+1) slab of |u|, time last.

    Layer l sits at depth (l + 1/2) h_depth; its cone section admits
    tangential offsets m with |m . h| < rho and times within
    rho * sqrt(rho^2 - |dx|^2) of the vertex, rho = eta * depth.  Fixing
    the offsets on the tangential axes before the last (there are none
    when d = 2) leaves a staircase in the last axis and time, whose max
    `_staircase` takes by flat passes and at most one maximum_filter1d
    call, for the common time window.  The section is symmetric, so each
    staircase is taken once per |offset| and shifted by whole rows into
    the (*tang, nt+1) result for every sign.
    """
    *h_lead, h = h_tang
    lead_shape = slab.shape[1:-2]
    n, nt1 = slab.shape[-2:]
    out = np.zeros(slab.shape[1:])
    bufs = [np.empty(slab.shape[1:]) for _ in range(4)]
    for l, layer in enumerate(slab):
        rho = eta * ((l + 0.5) * h_depth)
        max_off = [int(min(np.floor(rho / hl), nl - 1))
                   for hl, nl in zip(h_lead, lead_shape)]
        for offs in product(*[range(mo + 1) for mo in max_off]):
            corners = _corners(
                rho, sum((o * hl) ** 2 for o, hl in zip(offs, h_lead)),
                h, n, dt, nt1)
            if not corners:
                continue
            section = _staircase(layer, corners, bufs)
            for signed in product(*[(o, -o) if o else (0,) for o in offs]):
                src, dst = [], []
                for o, nl in zip(signed, lead_shape):
                    src.append(slice(max(o, 0), nl + min(o, 0)))
                    dst.append(slice(max(-o, 0), nl - max(o, 0)))
                view = out[tuple(dst)]
                np.maximum(view, section[tuple(src)], out=view)
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
    axis, side = face.key
    h = list(grid.h)                # a graded grid raises ValueError here
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
    vals = _cone_sup(np.abs(v[:nlayers], order="C"), h, grid.dt, h_depth,
                     eta)
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
    boundary.  A face whose first cell layer sits at or above r0, and a
    non-finite eta, raise ValueError; a finite eta of any size gives cones
    that cover the whole grid.
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
    and time levels that N(u) is measured on."""
    return lp_boundary_norm(
        {face.key: BoundaryField(
            np.abs([f(face.points, t).reshape(face.weights.shape)
                    for t in grid.times()]), face.weights, grid.dt)
         for face in lateral_faces(grid, dom)}, p)
