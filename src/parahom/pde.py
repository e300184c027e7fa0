"""Implicit-Euler finite-volume solver for  du/dt - div(A grad u) = 0.

Grids are tensor-product and cell-centered, uniform or graded per axis
(fine cells near the active region, geometrically growing cells in the
truncation margins).  Graph domains are flattened through the shear
pullback before discretization, so the computational domain is always a
box: the geometry moves into the coefficients.  Lateral Dirichlet values
enter through boundary-face fluxes; artificial truncation faces of
half-space runs carry homogeneous data.

Every march runs through one stepper, `_solve_field`: backward-Euler
steps of a fixed size from a flat state on the operator it is given, one
sparse LU factorization, one solve per step and one residual check per
call.  `_assemble` builds the operator, flattening graph domains itself.
A window is a box of cells, one slice per axis and one of time levels
(`_run` turns a reader's threshold mask into its slice); a march stores
only the box its caller reads.
Every march solves with SuperLU's faster transposed solve on the factors
of M^T (M the step matrix), ordered by minimum degree on the pattern of
M^T + M, which about halves the fill of SuperLU's default COLAMD order on
these grid operators and keeps partial pivoting, so only roundoff moves.
The relative residual of the last solve of every march is checked against
the 1e-10 contract, and a breach raises RuntimeError.  Boundary data is
evaluated once per time level on the points of every lateral face and
added to the face groups' cells in face order; its values at the initial
time must vanish on each face.
A probe's value at the final time comes from `adjoint_trace`, the exact
discrete adjoint: the same stepper marching the transposed operator S^T
from the probe weights over the mass, which needs no symmetry of the
operator.  It records the discrete caloric kernel of the probe on a graph
domain's one face (one solve per step), so the final probe value of any
data on that face is a sum of the kernel against the data.
`_probe` is the one point-read rule: the box of 2^d cells around the point
and the outer product of one multilinear `_hat` per axis on it, the weights
P of that read; `ScalarField.value_at` applies them on the two time levels
around t.  `_window` is the one box of a parabolic window T_r.

The operator is in divergence form, the discrete divergence of the face
fluxes: S = sum_k D_k^T F_k + B, with D_k the difference across the k-faces
and B the boundary faces, every factor a Kronecker product of 1-d operators
(`_assemble`).  The flux F_k uses distance-weighted harmonic face averaging
of a_kk (exact for laminates aligned with faces) and centered tangential
differences for the off-diagonal entries; with diagonal coefficient tensors
the step matrix is an M-matrix, which makes the discrete maximum principle
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coeffs import CoefficientField, _require_elliptic
from .geometry import GraphDomain, LipschitzCylinder, ParabolicCube, flatten_pullback

__all__ = [
    "SpaceTimeGrid",
    "ScalarField",
    "BoundaryData",
    "LateralFace",
    "lateral_faces",
    "IncompatibleDataError",
    "graded_axis",
    "solve_dirichlet",
    "solve_impulse",
    "adjoint_trace",
    "nt_trace_ratio",
    "q_difference",
    "halfspace",
    "save_field",
    "load_field",
]

_COMPAT_TOL = 1e-12
_RESIDUAL_TOL = 1e-10   # relative-residual contract of every step solve
_GROWTH = 1.3           # ratio of neighbouring cells in a graded margin


class IncompatibleDataError(ValueError):
    """Lateral data does not vanish at the initial time."""


def _margin(start: float, h: float, wall: float, h_max: float) -> list:
    """Faces after start up to wall > start: cells grow by 1.3x from h, at
    most h_max, and a last cell under h / 2 joins the one before it."""
    faces, step = [start], h
    while faces[-1] < wall - 1e-12 * max(1.0, abs(wall)):
        step = min(step * _GROWTH, h_max, wall - faces[-1])
        if wall - (faces[-1] + step) < 0.5 * h:
            step = wall - faces[-1]
        faces.append(faces[-1] + step)
    return faces[1:]


def _gap(a: float, b: float, ha: float, hb: float, h_max: float) -> list:
    """Faces strictly between a and b, growing by 1.3x from ha at a and hb
    at b, at most h_max."""
    L, R = [a], [b]
    hl, hr = ha, hb
    while R[-1] - L[-1] > 0.75 * (min(hl * _GROWTH, h_max)
                                  + min(hr * _GROWTH, h_max)):
        if hl <= hr:
            hl = min(hl * _GROWTH, h_max)
            L.append(L[-1] + hl)
        else:
            hr = min(hr * _GROWTH, h_max)
            R.append(R[-1] - hr)
    if R[-1] - L[-1] <= 1e-12 * max(1.0, abs(b) + abs(a)):
        R.pop()
    return (L + R[::-1])[1:-1]


def graded_axis(segments, lo: float, hi: float, h_max: float) -> np.ndarray:
    """Faces of [lo, hi] with uniform fine segments (a_i, b_i, h_i).

    Segments are clipped to [lo, hi], and ones that overlap or lie within
    1e-12 of each other merge at the finer spacing.  Each segment is
    uniform at its spacing; the gaps between segments grow by 1.3x per cell
    from both ends and the margins from the outer segments to lo and hi,
    every such cell at most h_max.  The low margin is the high one's loop
    run on negated coordinates, which negation leaves exact.  A face within
    1e-9 x the axis scale of the one before it is dropped.
    """
    merged = []
    for a, b, h in sorted((float(a), float(b), float(h))
                          for a, b, h in segments):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if merged and a <= merged[-1][1] + 1e-12:
            pa, pb, ph = merged[-1]
            merged[-1] = (pa, max(pb, b), min(ph, h))
        else:
            merged.append((a, b, h))
    if not merged:
        raise ValueError("no segment intersects the axis interval")
    (a0, _, h0), (_, b1, h1) = merged[0], merged[-1]
    pieces = [[-f for f in reversed(_margin(-a0, h0, -lo, h_max))]]
    for i, (a, b, h) in enumerate(merged):
        if i:
            pb, ph = merged[i - 1][1:]
            pieces.append(_gap(pb, a, ph, h, h_max))
        pieces.append(np.linspace(a, b, max(1, int(round((b - a) / h))) + 1))
    pieces.append(_margin(b1, h1, hi, h_max))
    faces = np.concatenate(pieces)
    keep = np.append(True, np.diff(faces) > 1e-9 * max(1.0, np.abs(faces).max()))
    return faces[keep]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Cell-centered tensor grid on a box, uniform time step.

    A grid is its faces: one finite, increasing face array per axis, at
    least one axis, graded (`graded_axis`) or uniform (`uniform`, which
    lays np.linspace(lo, hi, shape + 1) on each axis), stored as frozen
    copies of the arrays given.  lo, hi and shape are read from the faces.
    nt time steps cover (t0, t1], both finite.
    Graph and chart domains are flattened to exact boxes before gridding,
    so every cell is inside.
    """

    faces: tuple
    t0: float
    t1: float
    nt: int

    def __post_init__(self):
        faces = tuple(np.array(f, dtype=float) for f in self.faces)
        if not faces:
            raise ValueError("a grid needs at least one axis")
        for k, f in enumerate(faces):
            if f.ndim != 1 or f.size < 2:
                raise ValueError(f"axis {k} needs a 1-d array of >= 2 faces")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"axis {k} has non-finite faces")
            if np.any(np.diff(f) <= 0):
                raise ValueError(f"axis {k} faces must strictly increase")
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError(f"t0 = {self.t0}, t1 = {self.t1} must be finite")
        if self.nt < 1 or self.t1 <= self.t0:
            raise ValueError("time interval must be nonempty with nt >= 1")
        for f in faces:
            f.flags.writeable = False
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t1", float(self.t1))
        object.__setattr__(self, "nt", int(self.nt))

    @classmethod
    def uniform(cls, lo, hi, shape, t0, t1, nt) -> "SpaceTimeGrid":
        """Uniform grid: shape[k] equal cells from lo[k] to hi[k]."""
        if not len(lo) == len(hi) == len(shape):
            raise ValueError("lo, hi, shape must share one length")
        return cls(tuple(np.linspace(float(a), float(b), int(s) + 1)
                         for a, b, s in zip(lo, hi, shape)), t0, t1, nt)

    @property
    def lo(self) -> tuple:
        return tuple(float(f[0]) for f in self.faces)

    @property
    def hi(self) -> tuple:
        return tuple(float(f[-1]) for f in self.faces)

    @property
    def shape(self) -> tuple:
        return tuple(f.size - 1 for f in self.faces)

    @property
    def d(self) -> int:
        return len(self.faces)

    @property
    def h(self) -> tuple:
        """Uniform spacings (f[-1] - f[0]) / cells; a graded axis raises
        ValueError.

        An axis is uniform when every spacing equals the first up to the
        roundoff of the axis' coordinates, 8 eps max|f|, plus 1e-9 of that
        spacing: a box cut from a wider uniform axis carries the roundoff
        of the coordinates it was cut from, which can exceed its own.  The
        rule has no absolute scale, so an axis reads the same at every zoom
        and offset.
        """
        eps = np.finfo(float).eps
        for f in self.faces:
            dx = np.diff(f)
            if np.abs(dx - dx[0]).max() > 8 * eps * np.abs(f).max() \
                    + 1e-9 * dx[0]:
                raise ValueError("grid is graded; use axis_spacings")
        return tuple(float((f[-1] - f[0]) / (f.size - 1)) for f in self.faces)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.nt

    @property
    def ncells(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, k: int) -> np.ndarray:
        f = self.faces[k]
        return 0.5 * (f[:-1] + f[1:])

    def axis_spacings(self, k: int) -> np.ndarray:
        return np.diff(self.faces[k])

    def cell_volumes(self, cells=None) -> np.ndarray:
        """Cell volumes of the box on the axes of `cells`, shape (*m).

        cells maps axes, in increasing order, to a slice of that axis' cells
        (slice(None) keeps the whole axis); the default is every axis
        whole.  The volumes are the outer product of the axis spacings.
        """
        cells = (dict.fromkeys(range(self.d), slice(None)) if cells is None
                 else cells)
        return reduce(np.multiply.outer,
                      [self.axis_spacings(k)[s] for k, s in cells.items()],
                      np.ones(()))

    def _mesh(self, axes) -> np.ndarray:
        mesh = np.meshgrid(*[self.axis_centers(k) for k in axes], indexing="ij")
        return np.stack([mm.reshape(-1) for mm in mesh], axis=-1)

    def centers(self) -> np.ndarray:
        """All cell centers, shape (ncells, d), C-order."""
        return self._mesh(range(self.d))

    def tangential_centers(self) -> np.ndarray:
        """Cell centers of the first d-1 axes, shape (cells, d-1), C-order."""
        return self._mesh(range(self.d - 1))

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.nt + 1) * self.dt


def halfspace(x_lo, x_hi, height, t0, t1, shape, nt) -> SpaceTimeGrid:
    """Uniform grid on a truncated half space {0 < lam < height}."""
    x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
    x_hi = np.atleast_1d(np.asarray(x_hi, dtype=float))
    lo = tuple(x_lo) + (0.0,)
    hi = tuple(x_hi) + (float(height),)
    return SpaceTimeGrid.uniform(lo, hi, tuple(shape), t0, t1, nt)


@dataclass(frozen=True)
class BoundaryData:
    """Lateral Dirichlet data f(x, t).

    evaluator(points, t) takes boundary-point coordinates -- tangential
    (x) coordinates for graph/half-space domains, full spatial coordinates
    for cylinders -- and returns one value per point.  It must be
    pointwise: the solves hand it the points of several faces in one call.
    """

    evaluator: Callable

    def __call__(self, points, t):
        return np.asarray(self.evaluator(points, t), dtype=float)


@dataclass(frozen=True)
class ScalarField:
    """Discrete field on a SpaceTimeGrid: values[k] at time level k.

    bottom_trace is the Dirichlet data the solve applied on the bottom face
    lam = lo: bottom_trace[k] at time level k, one value per bottom cell in
    the order of `grid.tangential_centers()`.  The grid gives its points and
    times.  It is None for a field no solve recorded data for (a loaded
    field, a difference of fields, a field built by hand).

    values is a read-only view of the float array given, not a copy: a
    field is the largest array here, so it is never duplicated, and a
    caller that later writes to its own array writes to the field.  The
    bottom trace is a frozen copy.  A refused input is left as it was.
    """

    grid: SpaceTimeGrid
    values: np.ndarray            # (nt+1, *shape)
    bottom_trace: Optional[np.ndarray] = None   # (nt+1, bottom cells)

    def __post_init__(self):
        g = self.grid
        v = np.asarray(self.values, dtype=float)
        if v.shape != (g.nt + 1,) + g.shape:
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        b = self.bottom_trace
        if b is not None:
            b = np.array(b, dtype=float)
            want = (g.nt + 1, g.ncells // g.shape[-1])
            if b.shape != want:
                raise ValueError(f"bottom trace shape {b.shape} does not "
                                 f"match grid: expected {want}")
            b.flags.writeable = False
        v = v.view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "bottom_trace", b)

    def value_at(self, X, t) -> float:
        """u(X, t): the probe weights of `_probe` (the `_hat` of each axis,
        multilinear between cell centers, holding the edge cell's value
        within half a cell of a face) on the two time levels around t,
        weighted by the `_hat` of t on `grid.times()`; only the 2 x 2^d
        values the hats touch are read.
        X outside [lo, hi] or t outside [t0, t1] raises ValueError."""
        g = self.grid
        box, weights = _probe(g, X)
        if not g.t0 <= t <= g.t1:
            raise ValueError(f"time t={t} lies outside the grid's "
                             f"[{g.t0}, {g.t1}]")
        k, wt = _hat(g.times(), t)
        block = self.values[(slice(k, k + 2),) + box]
        lo, hi = block.reshape(2, -1) @ weights.reshape(-1)
        return float(wt[0] * lo + wt[1] * hi)


def _run(mask) -> slice:
    """The slice of the one run of True in a boolean mask over cells or time
    levels: a window box is one such slice per axis.  An empty mask gives
    the empty slice(0, 0); a mask with a gap raises ValueError."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, 0)
    if idx[-1] - idx[0] + 1 != idx.size:
        raise ValueError("mask is not one run of cells")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _window(grid: SpaceTimeGrid, x0, t0: float, r: float) -> tuple:
    """The box of the open window T_r = {|x - x0| < r, 0 < lam < r,
    |t - t0| < r^2} on grid: a slice of time levels, then one of cells per
    axis."""
    lamc = grid.axis_centers(grid.d - 1)
    return ((_run(np.abs(grid.times() - t0) < r ** 2),)
            + tuple(_run(np.abs(grid.axis_centers(k) - x0[k]) < r)
                    for k in range(grid.d - 1))
            + (_run((lamc > 0) & (lamc < r)),))


# ----------------------------------------------------------------------
# operator assembly


class _BoundaryGroup(NamedTuple):
    cells: np.ndarray           # owner cell flat indices
    weights: np.ndarray         # Dirichlet transmissibilities


class _Operator(NamedTuple):
    S: sp.csr_matrix
    groups: dict                # (axis, side) -> _BoundaryGroup; 0 = lo
    volumes: np.ndarray


def _assemble(A: CoefficientField, dom, grid: SpaceTimeGrid) -> _Operator:
    """Finite-volume operator of A on grid, with its face groups.

    The field discretized, Afield, is the shear pullback
    `flatten_pullback(dom, A)` on a graph domain and A itself on any other,
    so every caller passes A and dom as given.  S is the divergence of the
    interior face fluxes plus the boundary diagonal,

        S = sum_k D_k^T (T_k D_k + sum_{j != k} diag(a_kj area) avg_k C_j) + B,

    with D_k, avg_k and C_j Kronecker products of 1-d operators along the
    axes.  D_k is the (k-faces x cells) difference u_hi - u_lo along axis k.
    T_k holds the two-point transmissibilities
    area / (h_lo/2a_kk,lo + h_hi/2a_kk,hi).
    avg_k is the mean of the two cells beside a k-face; a_kj and area are
    such means too.  C_j is the centered difference along axis j, with no
    entries on the first and last j cells, where it would leave the box (an
    O(h) consistency loss on a measure-h set); a pair (k, j) enters where
    some |a_kj| exceeds 1e-14.  B is a_kk(face) area / (h/2) on the cells of
    each boundary face, kept as that face's group.  The terms are stacked
    as S = L^T diag(w) R and summed in one sparse product, which stores no
    entry that sums to exactly 0.

    The values evaluated at the cell centers and on each boundary face are
    checked by `coeffs._require_elliptic` against Afield.lam; a breach
    raises ValueError naming the cells or the face.
    """
    Afield = flatten_pullback(dom, A) if isinstance(dom, GraphDomain) else A
    d, shape = grid.d, grid.shape
    pts = grid.centers()
    Avals = Afield(pts)                       # (ncells, d, d)
    _require_elliptic(Afield, pts, Avals, "cell-center")
    a = Avals.reshape(shape + (d, d))
    volumes = grid.cell_volumes()

    def along(ops):
        """ops[k] on axis k, the identity on every other axis."""
        return reduce(partial(sp.kron, format="coo"),   # BSR would store 0s
                      [ops.get(k, sp.identity(n))
                       for k, n in enumerate(shape)]).tocsr()

    def sides(x, k):
        """x on the lower and on the upper cell of each interior k-face."""
        pre = (slice(None),) * k
        return (x[pre + (slice(None, -1),)].reshape(-1),
                x[pre + (slice(1, None),)].reshape(-1))

    trace = sp.identity(grid.ncells, format="csr")  # trace[cells]: u there
    lefts, weights, rights, groups = [], [], [], {}   # S = L^T diag(w) R
    for k, n in enumerate(shape):
        h = grid.axis_spacings(k).reshape((-1,) + (1,) * (d - 1 - k))
        area = volumes / h                    # per-cell k-face area
        area_lo, area_hi = sides(area, k)
        r_lo, r_hi = sides(0.5 * h / a[..., k, k], k)
        D = along({k: sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))})
        lefts.append(D)
        weights.append(area_lo / (r_lo + r_hi))
        rights.append(D)

        index = np.arange(n).reshape(h.shape)      # axis-k index of the cells
        for side in (0, 1):
            cells = np.flatnonzero(
                np.broadcast_to(index == side * (n - 1), shape))
            E = trace[cells]
            face_pts = pts[cells]
            face_pts[:, k] = grid.faces[k][-side]
            face_vals = Afield(face_pts)
            _require_elliptic(Afield, face_pts, face_vals, f"face {(k, side)}")
            tb = face_vals[:, k, k] * area.reshape(-1)[cells] \
                / (0.5 * grid.axis_spacings(k)[side * (n - 1)])
            lefts.append(E)
            weights.append(tb)
            rights.append(E)
            groups[(k, side)] = _BoundaryGroup(cells, tb)

        for j in range(d):
            if j != k and np.abs(a[..., k, j]).max() > 1e-14:
                c = grid.axis_centers(j)
                inv = np.zeros(c.size)
                inv[1:-1] = 1.0 / (c[2:] - c[:-2])
                C = sp.diags([-inv[1:], inv[:-1]], [-1, 1],
                             shape=(c.size, c.size))
                lefts.append(D)
                weights.append(0.5 * np.add(*sides(a[..., k, j], k))
                               * (0.5 * (area_lo + area_hi)))
                rights.append(along({
                    k: sp.diags([0.5, 0.5], [0, 1], shape=(n - 1, n)), j: C}))

    R = sp.vstack(rights, format="csr")
    R.data *= np.repeat(np.concatenate(weights), np.diff(R.indptr))  # w R
    S = (sp.vstack(lefts, format="csr").T @ R).tocsr()
    return _Operator(S, groups, volumes.reshape(-1))


class LateralFace(NamedTuple):
    """One lateral face of a domain on a grid, a local graph over its cells."""

    key: tuple                  # (axis, side): normal axis, 0 = lo, 1 = hi
    points: np.ndarray          # data points, C order of the face cells
    weights: np.ndarray         # surface measure per face cell
    r0: Optional[float]         # chart height; None for the whole depth


def lateral_faces(grid: SpaceTimeGrid, dom) -> list:
    """The lateral faces of `dom` on `grid`; the only place that lists them.

    A graph domain has one, the flattened bottom lam = 0: data points are
    the tangential centers x, weights sqrt(1 + |grad phi(x)|^2) dx, and the
    chart is the whole depth (the other grid faces truncate the half space
    and carry zero data).  A box cylinder has every face of the grid box:
    data points are the face centers X, weights dx over the face, and the
    chart height is dom.r0.  Weights have the tangential cell shape.
    """
    if not isinstance(dom, (GraphDomain, LipschitzCylinder)):
        raise TypeError(f"unsupported domain {type(dom).__name__}")
    graph = isinstance(dom, GraphDomain)
    faces = []
    for axis in [grid.d - 1] if graph else range(grid.d):
        tang = [k for k in range(grid.d) if k != axis]
        x = grid._mesh(tang)
        w = grid.cell_volumes(dict.fromkeys(tang, slice(None)))
        if graph:
            g = dom.grad_phi(x)
            area = np.sqrt(1.0 + np.sum(g * g, axis=1)).reshape(w.shape)
            faces.append(LateralFace((axis, 0), x, area * w, None))
            continue
        for side, bound in enumerate((grid.lo, grid.hi)):
            faces.append(LateralFace((axis, side),
                                     np.insert(x, axis, bound[axis], axis=1),
                                     w, dom.r0))
    return faces


def _joined_points(faces: list) -> tuple:
    """(points, spans): the data points of faces, in their order, as one
    array for one call of pointwise data, and each face's slice of it by
    key."""
    ends = np.cumsum([len(face.points) for face in faces])
    return (np.concatenate([face.points for face in faces]),
            {face.key: slice(end - len(face.points), end)
             for face, end in zip(faces, ends)})


def _check_vanishing(values, t0: float, where: str) -> None:
    """Data values at the initial time t0 must vanish (compatibility);
    NaN values are refused like large ones."""
    v = np.abs(np.asarray(values, dtype=float))
    if v.size and not v.max() <= _COMPAT_TOL:
        raise IncompatibleDataError(
            f"data must vanish at the initial time t0={t0}; "
            f"max |f| = {v.max():.3e} on {where}")


def _factor(op: _Operator, dt: float):
    """Mass diagonal volumes/dt, the step matrix M = diag(mass) + S in CSR,
    and the LU factors of M^T (the CSC view M.T, not a copy), so that
    `lu.solve(b, trans="T")`, SuperLU's faster solve, solves M x = b.
    Columns are ordered by minimum degree on the pattern of M^T + M
    (SuperLU's MMD_AT_PLUS_A), with partial pivoting kept.
    """
    mass = op.volumes / dt
    M = (sp.diags(mass) + op.S).tocsr()
    return mass, M, spla.splu(M.T, permc_spec="MMD_AT_PLUS_A")


def _hat(centers: np.ndarray, x: float):
    """(i, w): the multilinear weights w = (1 - frac, frac) of x on the
    sorted points centers[i] and centers[i + 1] around it (cell centers of
    an axis, or time levels), x clamped to [centers[0], centers[-1]]; w
    holds one weight when there is one point."""
    if centers.size == 1:
        return 0, np.ones(1)
    x = min(max(x, centers[0]), centers[-1])
    i = min(max(int(np.searchsorted(centers, x)) - 1, 0), centers.size - 2)
    frac = (x - centers[i]) / (centers[i + 1] - centers[i])
    return i, np.array([1.0 - frac, frac])


def _probe(grid: SpaceTimeGrid, X) -> tuple:
    """(box, weights): the one point-read rule at the spatial point X.

    box holds one slice of cells per axis around X, weights (the shape of
    the box) the outer product of each axis' `_hat` weights on it.  X that
    is not a vector of grid.d coordinates raises ValueError naming both
    counts; X outside [lo, hi] or NaN raises ValueError, "outside the grid".
    """
    X = np.atleast_1d(np.asarray(X, dtype=float))
    if X.shape != (grid.d,):
        raise ValueError(f"point X={X.tolist()} has {X.size} coordinates; "
                         f"the grid has d = {grid.d}")
    if not all(f[0] <= x <= f[-1] for f, x in zip(grid.faces, X)):
        raise ValueError(f"point X={X.tolist()} lies outside the grid "
                         f"{grid.lo}..{grid.hi}")
    hats = [_hat(grid.axis_centers(k), X[k]) for k in range(grid.d)]
    return (tuple(slice(i, i + w.size) for i, w in hats),
            reduce(np.multiply.outer, [w for _, w in hats]))


# ----------------------------------------------------------------------
# public solves


def _solve_field(op: _Operator, dom, f: Optional[BoundaryData],
                 grid: SpaceTimeGrid, cells: tuple,
                 u0: np.ndarray) -> ScalarField:
    """March the operator op on grid from the flat state u0 and store the
    box `cells` at every level; f = None is zero data, and no face is bound
    to it.  This is the package's one backward-Euler loop: the forward
    solves pass `_assemble`'s operator, `adjoint_trace` its transpose.

    cells holds one slice of grid's cells per axis (step 1, the last one
    starting at the bottom lam layer; anything else raises ValueError).
    The field's grid is cut from the runs of grid's faces around the box,
    with grid's time levels, so its centers, volumes, times and dt are
    bitwise the grid's: a caller that reads a box sees the whole march's
    values there and pays memory for the box alone.  `solve_dirichlet` and
    `solve_impulse` store every cell.

    Steps of size grid.dt solve M u_k = D u_{k-1} + B g_k, D the mass
    diagonal volumes/dt, M = D + op.S and B the face groups'
    transmissibilities; M is factorized once, and the relative residual of
    the last solve is checked against the 1e-10 contract (RuntimeError on a
    breach).  f is evaluated once per time level, on the data points of
    every face of `lateral_faces(grid, dom)` in that order, and added face
    by face in that order (a corner cell sums data from two faces); the
    values at t0 must vanish on each face.  The data applied on the box's
    bottom cells is the field's `bottom_trace`.
    """
    runs = [range(n)[s] for n, s in zip(grid.shape, cells, strict=True)]
    if any(r.step != 1 for r in runs) or runs[-1].start:
        raise ValueError("cells must be slices of step 1, the lam one from "
                         "the grid's bottom lam layer")
    box = SpaceTimeGrid(tuple(faces[r.start:r.stop + 1]
                              for faces, r in zip(grid.faces, runs)),
                        grid.t0, grid.t1, grid.nt)
    faces = [] if f is None else lateral_faces(grid, dom)
    if faces:
        points, spans = _joined_points(faces)
        data = partial(f, points)
        groups = [op.groups[face.key] for face in faces]
        face_cells = np.concatenate([g.cells for g in groups])
        face_weights = np.concatenate([g.weights for g in groups])
        vals = data(grid.t0)
        for key, span in spans.items():
            _check_vanishing(vals[span], grid.t0, f"face {key}")
    out = np.empty((grid.nt + 1,) + box.shape)
    out[0] = u0.reshape(grid.shape)[cells]
    bottom = np.zeros((grid.nt + 1,) + box.shape[:-1])
    mass, M, lu = _factor(op, grid.dt)
    u = u0
    for step in range(1, grid.nt + 1):
        rhs = mass * u
        if faces:
            vals = data(grid.t0 + step * grid.dt)
            # unbuffered, in order: a corner cell adds its faces in turn
            np.add.at(rhs, face_cells, face_weights * vals)
            bottom[step] = vals[spans[(grid.d - 1, 0)]] \
                .reshape(grid.shape[:-1])[cells[:-1]]
        u = lu.solve(rhs, trans="T")
        out[step] = u.reshape(grid.shape)[cells]
    res, scale = np.linalg.norm(M @ u - rhs), np.linalg.norm(rhs)
    if not res <= _RESIDUAL_TOL * scale:
        raise RuntimeError(f"step solve residual {res:.3e} exceeds "
                           f"{_RESIDUAL_TOL:g} x the rhs norm {scale:.3e}")
    return ScalarField(box, out, bottom.reshape(grid.nt + 1, -1))


def solve_dirichlet(A: CoefficientField, dom, f: BoundaryData,
                    grid: SpaceTimeGrid) -> ScalarField:
    """March the Dirichlet problem with zero initial data.

    Graph domains are flattened (coefficients take the shear); the grid then
    lives on {lam > 0}.  Cylinders use the grid box as the base and carry f
    on every lateral face.  Data must vanish at t0.
    """
    return _solve_field(_assemble(A, dom, grid), dom, f, grid,
                        (slice(None),) * grid.d, np.zeros(grid.ncells))


def adjoint_trace(A: CoefficientField, dom, grid: SpaceTimeGrid,
                  probe) -> np.ndarray:
    """Discrete caloric kernel of one probe point on a graph domain's one
    face, the flattened bottom lam = 0.

    From zero initial data the forward march M u_k = D u_{k-1} + B g_k
    (D the mass diagonal, B the boundary-face transmissibilities) read at
    t1 through the probe weights P of `_probe` is  P u_N = sum_k w_k^T B g_k,
    with w_N = M^-T P^T and w_{k-1} = M^-T D w_k.  That is the forward
    march of the transposed operator S^T (step matrix M^T) from
    u0 = D^-1 P^T, w_k its level N + 1 - k: `_solve_field` runs it, storing
    the bottom lam layer alone, and needs no symmetry of the step matrix.
    Returns K of shape (nt, faces) with K[k-1] = B w_k, faces in the order
    of the `lateral_faces` data points: for data g on the face,
    P u_N = sum_k K[k-1] . g(t_k) up to roundoff.  A domain that is not a
    graph or a probe outside the grid box raises ValueError before any
    assembly.
    """
    if not isinstance(dom, GraphDomain):
        raise ValueError(f"adjoint_trace needs a graph domain, whose one "
                         f"face carries the kernel; got {type(dom).__name__}")
    box, weights = _probe(grid, probe)
    op = _assemble(A, dom, grid)
    z = np.zeros(grid.shape)
    z[box] = weights
    w = _solve_field(op._replace(S=op.S.T.tocsr()), dom, None, grid,
                     (slice(None),) * (grid.d - 1) + (slice(0, 1),),
                     z.reshape(-1) / (op.volumes / grid.dt))
    return op.groups[(grid.d - 1, 0)].weights \
        * w.values[:0:-1].reshape(grid.nt, -1)


def _impulse(grid: SpaceTimeGrid, pole_X) -> np.ndarray:
    """The flat initial state of `solve_impulse`: 1/volume on the cell
    nearest pole_X, 0 elsewhere.  pole_X passes `_probe`'s checks (grid.d
    coordinates, inside the grid box, no NaN), and its cell must not touch
    the grid's faces."""
    _probe(grid, pole_X)
    pole_X = np.atleast_1d(np.asarray(pole_X, dtype=float))
    idx = []
    for k in range(grid.d):
        c = grid.axis_centers(k)
        i = int(np.argmin(np.abs(c - pole_X[k])))
        if i == 0 or i == grid.shape[k] - 1:
            raise ValueError("pole must be interior to the grid box")
        idx.append(i)
    idx = tuple(idx)
    u0 = np.zeros(grid.shape)
    u0[idx] = 1.0 / grid.cell_volumes()[idx]
    return u0.reshape(-1)


def solve_impulse(A: CoefficientField, dom, pole_X,
                  grid: SpaceTimeGrid) -> ScalarField:
    """Propagate a unit point mass released at (pole_X, grid.t0), with zero
    lateral data, and store every cell.  The impulse is the discrete delta
    of `_impulse`: 1/volume on the interior cell nearest the pole."""
    u0 = _impulse(grid, pole_X)
    return _solve_field(_assemble(A, dom, grid), dom, None, grid,
                        (slice(None),) * grid.d, u0)


# ----------------------------------------------------------------------
# field diagnostics


def nt_trace_ratio(u: ScalarField, cube: ParabolicCube) -> np.ndarray:
    """Boundary-trace ratio u/lam at lam = 0 on the cube patch.

    The first-interior-layer ratio u(., lam1)/lam1 is extrapolated to
    lam = 0 through the second layer's (Richardson, exact for
    u = a lam + b lam^2).  Returns the estimate as an (mt, mx) array: time
    levels in the patch by tangential cells in the patch, C order.
    Requires the boundary data of the solve to vanish on the concentric
    4x cube, read as the time and tangential slices of the `_window` box
    of T_4r (the trace hypothesis: |f| <= 1e-10 there); the field must
    carry the bottom trace recorded by its solve, `u.bottom_trace`.
    The check sees only the time levels the grid holds: a field whose
    march stopped early is checked up to its last level.
    """
    grid = u.grid
    bd = u.bottom_trace                 # (nt+1, m_bottom)
    if bd is None:
        raise ValueError("field has no recorded bottom boundary data")
    big = _window(grid, cube.center_x, cube.center_t, 4.0 * cube.side)[:-1]
    bd = bd.reshape((grid.nt + 1,) + grid.shape[:-1])
    if np.abs(bd[big]).max(initial=0.0) > 1e-10:
        raise ValueError("boundary data does not vanish on the 4x cube")

    box = _window(grid, cube.center_x, cube.center_t, cube.side)[:-1]
    lamc = grid.axis_centers(grid.d - 1)
    lam1, lam2 = float(lamc[0]), float(lamc[1])
    v = u.values[box]
    r1 = v[..., 0] / lam1
    r2 = v[..., 1] / lam2
    rich = r1 - lam1 * (r2 - r1) / (lam2 - lam1)
    return rich.reshape(rich.shape[0], -1)


def q_difference(u: ScalarField, period: float) -> ScalarField:
    """Shifted vertical difference  Qu(x, t, lam) = u(x, t, lam + p) - u.

    Needs a lam axis that is uniform with spacing dividing the period and
    one period of headroom above the evaluation region; the coefficient
    field of the originating solve is expected to be lam-periodic with the
    same period.  Qu carries no bottom trace: its bottom layer holds
    differences of u, not data a solve applied.
    """
    grid = u.grid
    s = period / grid.h[-1]
    if abs(s - round(s)) > 1e-9:
        raise ValueError("period must be an integer number of lam cells")
    s = int(round(s))
    if s < 1 or s >= grid.shape[-1]:
        raise ValueError("grid does not extend one period above the region")
    vals = u.values[..., s:] - u.values[..., :-s]
    ng = SpaceTimeGrid(grid.faces[:-1] + (grid.faces[-1][:-s],),
                       grid.t0, grid.t1, grid.nt)
    return ScalarField(ng, vals)


# ----------------------------------------------------------------------
# binary field format


_FIELD_MAGIC = b"PARAHOM1"


def save_field(u: ScalarField, path: str) -> None:
    """Write a field's grid and values as one little-endian binary file.

    Layout: 8-byte magic, uint32 d, uint32 nt, uint32 shape[d], then the
    f64 face arrays per axis, f64 t0, t1, then the (nt+1) x cells payload
    in C order.  The bottom trace is not written, and no sidecar is.
    """
    import struct

    g = u.grid
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<I", g.d))
        fh.write(struct.pack("<I", g.nt))
        fh.write(struct.pack(f"<{g.d}I", *g.shape))
        for f in g.faces:
            fh.write(np.ascontiguousarray(f, dtype="<f8").tobytes())
        fh.write(struct.pack("<2d", g.t0, g.t1))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_field(path: str) -> ScalarField:
    """Read a file written by `save_field`.  The file holds no bottom
    trace, so the field returned has none."""
    import math
    import os
    import struct

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n):
            # checked against the file's size first: a corrupt header word
            # must not make fh.read allocate terabytes
            if fh.tell() + n > size:
                raise ValueError(f"field file {path} is truncated: reading on "
                                 f"needs {fh.tell() + n} bytes, the file "
                                 f"holds {size}")
            return fh.read(n)

        if fh.read(8) != _FIELD_MAGIC:
            raise ValueError("not a parahom field file")
        d, nt = struct.unpack("<2I", read(8))
        shape = struct.unpack(f"<{d}I", read(4 * d))
        count = (nt + 1) * math.prod(shape)
        need = fh.tell() + 8 * (sum(shape) + d) + 16 + 8 * count
        if need != size:
            what = "is truncated" if need > size else "has trailing bytes"
            raise ValueError(f"field file {path} {what}: its header implies "
                             f"{need} bytes, the file holds {size}")
        faces = [np.frombuffer(read(8 * (shape[k] + 1)), dtype="<f8")
                 for k in range(d)]
        t0, t1 = struct.unpack("<2d", read(16))
        vals = np.frombuffer(read(count * 8), dtype="<f8").reshape(
            (nt + 1,) + shape)
    grid = SpaceTimeGrid(faces, t0, t1, nt)
    return ScalarField(grid, vals.copy())
