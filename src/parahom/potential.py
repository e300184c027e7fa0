"""Caloric measure, kernel densities, Green functions and the quantitative
diagnostic battery: doubling, reverse Holder, local solvability, Harnack,
Green-measure equivalence.

Conventions.  `greens_function(A, dom, pole, point)` returns G at one read
point: one forward propagation of a discrete unit impulse from the pole
time, stored on the cells the read touches and the lam cells below them,
on a grid whose horizon and core the read point fixes and whose
spacing the constants `_GREEN_CELLS` and `_GREEN_STEPS` set, read with the
probe weights of `pde.adjoint_trace` (`pde._probe`, through
`ScalarField.value_at`); a point at or before the pole time reads 0.  Each
pole diagnostic reads one discrete caloric kernel: the adjoint trace of the
pole on the bottom face of its measure grid (`pde.adjoint_trace`, the
transposed step matrix, which needs no symmetry of the operator; flattened
graph domains do not give one).  The measure of separable lateral data
pt(t) px(x) is then pt^T K px: measures take the mollified indicator of a
cube (width one grid cell and one time step), and halving the mollification
bounds the smoothing error; kernel densities are sub-cube measure ratios
from tent partitions of the cube, and a kernel estimate carries the whole
cube's measure from its kernel.  Both are `_tents`: the cube's indicator is
the one tent of its two edges per axis.  The windows T_r of the ratio
diagnostics are `pde._window` boxes.
Admissibility windows are enforced as preconditions with explicit margins;
inadmissible exploratory runs are allowed, and the `watermark` of their
result is the one report of it (no warning is raised).

Empirical constants are never asserted against book values; callers check
uniformity and stability instead.

Every diagnostic owns its solves; diagnostics over different poles or
cubes can run concurrently since all shared inputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .coeffs import CoefficientField
from .geometry import GraphDomain, ParabolicCube, ParabolicPoint, parabolic_norm
from .pde import (BoundaryData, ScalarField, SpaceTimeGrid, _assemble,
                  _check_vanishing, _impulse, _probe, _solve_field, _window,
                  adjoint_trace, graded_axis, lateral_faces, nt_trace_ratio)

__all__ = [
    "PotentialConfig",
    "MeasureEstimate",
    "KernelEstimate",
    "caloric_measure",
    "caloric_measure_field",
    "kernel_estimate",
    "greens_function",
    "green_symmetry_check",
    "doubling_ratio",
    "reverse_holder_ratio",
    "local_solvability_ratio",
    "harnack_ratio",
    "green_measure_equivalence",
    "MeasureBelowNoiseError",
]


_NOISE_FLOOR = 1e-8         # measure and Green values below this are noise
_MAX_CELLS_PER_AXIS = 768   # cap on every axis of a diagnostic grid
_MARGIN_MULT = 4.0          # truncation margin / configuration diameter
_GREEN_CELLS = 16.0         # Green grid: h = sqrt(horizon) / _GREEN_CELLS
_GREEN_STEPS = 96.0         # Green grid: dt = horizon / _GREEN_STEPS


class MeasureBelowNoiseError(RuntimeError):
    """A measure value sits below the noise floor."""


@dataclass(frozen=True)
class PotentialConfig:
    """Resolution knobs of the measure grids.

    cells_per_r and steps_per_r2 set the fine spacing h = r / cells_per_r
    and the step dt = r^2 / steps_per_r2 of a scale-r measure grid.  The
    Green grids do not read them: their h = sqrt(horizon) / 16 and
    dt = horizon / 96 are the constants `_GREEN_CELLS` and `_GREEN_STEPS`.
    Fixed: the truncation margin of the half-space box is 4x the parabolic
    diameter of the active configuration (data support, pole, elapsed
    time) on a measure grid and 4x the diffusion scale on a Green grid, the
    grids refuse axes above 768 cells, the noise floor is 1e-8, the
    Green-measure region condition is |(x0,0) - (x,lam)|^2 <= |t - t0|, and
    margins and the gaps between fine segments grade by 1.3x per cell
    (`pde.graded_axis`), up to max(16 h, extent / 64) on a measure-grid
    axis and 16 h on a Green-grid axis.
    """

    cells_per_r: float = 16.0
    steps_per_r2: float = 24.0


DEFAULT_CONFIG = PotentialConfig()


# ----------------------------------------------------------------------
# mollified cube data


def _tents(s, edges, w):
    """Tent partition over the sub-intervals of `edges`, shape
    s.shape + (len(edges) - 1,): column i is the indicator of
    [edges[i], edges[i+1]] mollified by width w, a product of two clipped
    ramps.  The columns sum to the outer mollified indicator exactly
    (shared internal ramps telescope)."""
    s = np.asarray(s, dtype=float)[..., None]
    e = np.asarray(edges, dtype=float)
    return (np.clip((s - e[:-1]) / w + 0.5, 0.0, 1.0)
            * np.clip((e[1:] - s) / w + 0.5, 0.0, 1.0))


def _cube_profiles(cube: ParabolicCube, pts, t, w_x, w_t):
    """Mollified indicator of a cube as separable profiles (px, pt).

    px has one value per point (rows of pts), pt one per time in t (a
    scalar for a scalar t); the indicator at (pts[i], t[k]) is px[i] * pt[k].
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    px = np.ones(pts.shape[0])
    for k in range(cube.center_x.size):
        c = cube.center_x[k]
        px = px * _tents(pts[:, k], [c - cube.side, c + cube.side], w_x)[:, 0]
    pt = _tents(t, [cube.center_t - cube.side ** 2,
                    cube.center_t + cube.side ** 2], w_t)[..., 0]
    return px, pt


# ----------------------------------------------------------------------
# grid construction


def _config_diameter(cube: ParabolicCube, pole: ParabolicPoint,
                     t_start: float) -> float:
    """Parabolic diameter of the active configuration."""
    pts = []
    r = cube.side
    for sx in (-1.0, 1.0):
        for st in (-1.0, 1.0):
            pts.append((cube.center_x + sx * r, 0.0, cube.center_t + st * r * r))
    pts.append((pole.X[:-1], pole.X[-1], pole.t))
    pts.append((cube.center_x, 0.0, t_start))
    diam = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = np.append(np.atleast_1d(pts[i][0]) - np.atleast_1d(pts[j][0]),
                           pts[i][1] - pts[j][1])
            diam = max(diam, float(parabolic_norm(dx, pts[i][2] - pts[j][2])))
    return diam


def _capped(grid: SpaceTimeGrid) -> SpaceTimeGrid:
    for k, n in enumerate(grid.shape):
        if n > _MAX_CELLS_PER_AXIS:
            raise ValueError(f"grid axis {k} has {n} cells, more than "
                             f"max_cells_per_axis = {_MAX_CELLS_PER_AXIS}")
    return grid


def _measure_grid(pole: ParabolicPoint, cube: ParabolicCube,
                  cfg: PotentialConfig) -> SpaceTimeGrid:
    """Graded half-space grid: fine cells over the cube and around the pole,
    geometrically growing cells across gaps and the truncation margin.

    On each axis the growing cells stop at h_max = max(16 h, (hi - lo)/64),
    h the fine spacing and [lo, hi] the axis' extent.
    """
    r = cube.side
    n = cube.center_x.size
    h = r / cfg.cells_per_r
    dt = r * r / cfg.steps_per_r2
    t_start = min(cube.center_t - r * r, pole.t) - 2 * dt
    margin = _MARGIN_MULT * _config_diameter(cube, pole, t_start)
    axes = []
    for k in range(n):
        segs = [(cube.center_x[k] - 1.5 * r, cube.center_x[k] + 1.5 * r, h),
                (pole.X[k] - r, pole.X[k] + r, h)]
        axes.append((segs, min(s[0] for s in segs) - margin,
                     max(s[1] for s in segs) + margin))
    axes.append(([(0.0, 2.0 * r, h),
                  (max(0.0, pole.X[-1] - r), pole.X[-1] + r, h)],
                 0.0, pole.X[-1] + r + margin))
    faces = [graded_axis(segs, lo, hi, max(16.0 * h, (hi - lo) / 64.0))
             for segs, lo, hi in axes]
    nt = max(8, int(np.ceil((pole.t - t_start) / dt)))
    return _capped(SpaceTimeGrid(faces, t_start, pole.t, nt))


def _require_pole_clearance(grid: SpaceTimeGrid, pole: ParabolicPoint,
                            cells: int = 4):
    for k, f in enumerate(grid.faces):
        below = int(np.searchsorted(f, pole.X[k]))
        if below < cells or f.size - 1 - below < cells:
            what = "boundary" if k == grid.d - 1 else "truncation face"
            raise ValueError(
                f"pole coordinate {pole.X[k]:.4g} on axis {k} is within "
                f"{cells} cells of the {what}")


# ----------------------------------------------------------------------
# caloric measure


@dataclass(frozen=True)
class MeasureEstimate:
    """omega^{pole}(cube) with its smoothing error; both are 0 when the
    cube lies after the pole."""

    value: float
    smoothing_error: float


def _fine_spacing(grid: SpaceTimeGrid) -> float:
    return float(min(grid.axis_spacings(k).min() for k in range(grid.d - 1)))


class _PoleKernel(NamedTuple):
    """Discrete caloric kernel of one pole on the bottom face of its grid.

    K[k-1, f] is the pole value of unit data on bottom-face cell f at time
    level k, so the pole value of lateral data g is sum K * g.  x holds the
    face points (faces, n), t all nt + 1 time levels (t[0] the initial
    time), and w_x, w_t the mollification widths: one fine cell, one step.
    """

    K: np.ndarray
    x: np.ndarray
    t: np.ndarray
    w_x: float
    w_t: float

    def mass(self, pt, px):
        """pt[1:]^T K px for time profiles pt on t and face profiles px.

        pt has shape (nt + 1, ...) and must vanish at t[0], like any
        Dirichlet data of the march.  The face sum runs first, per level.
        """
        _check_vanishing(pt[0], self.t[0], "the time profile")
        return pt[1:].T @ (self.K @ px)

    def cube_mass(self, cube: ParabolicCube, scale: float = 1.0) -> float:
        """Measure of the cube's indicator mollified by scale x (w_x, w_t)."""
        px, pt = _cube_profiles(cube, self.x, self.t, scale * self.w_x,
                                scale * self.w_t)
        return float(self.mass(pt, px))


def _pole_kernel(A, dom, pole: ParabolicPoint, cube: ParabolicCube,
                 cfg: PotentialConfig) -> _PoleKernel:
    """The pole's kernel on the measure grid of `cube`: one adjoint march."""
    grid = _measure_grid(pole, cube, cfg)
    _require_pole_clearance(grid, pole)
    face, = lateral_faces(grid, dom)
    K = adjoint_trace(A, dom, grid, pole.X)
    return _PoleKernel(K, face.points, grid.times(), _fine_spacing(grid),
                       grid.dt)


def _cube_measure(kern: _PoleKernel, cube: ParabolicCube) -> MeasureEstimate:
    """The cube's measure on the pole's kernel; the same measure at half
    mollification gives smoothing_error = |value - value_half|."""
    value = kern.cube_mass(cube)
    value_half = kern.cube_mass(cube, 0.5)
    return MeasureEstimate(value, abs(value_half - value))


def caloric_measure(A: CoefficientField, dom: GraphDomain,
                    pole: ParabolicPoint, cube: ParabolicCube,
                    cfg: PotentialConfig = DEFAULT_CONFIG) -> MeasureEstimate:
    """Measure of a boundary cube seen from an interior pole.

    The pole's kernel on the measure grid of the cube, paired with the
    mollified indicator of the cube, gives the value; the indicator at half
    mollification on the same kernel gives smoothing_error =
    |value - value_half|.  When the cube's edges
    sit on cell faces and time levels (as on the measure grids of the sweep's
    cubes), both widths sample the same data values, so smoothing_error is
    0 up to roundoff.  That is the true smoothing error, not a bound on the
    discretization error.  A cube that starts after the pole gets value and
    smoothing_error 0 with no solve.
    """
    r = cube.side
    if cube.center_t - r * r >= pole.t:
        return MeasureEstimate(0.0, 0.0)

    return _cube_measure(_pole_kernel(A, dom, pole, cube, cfg), cube)


def caloric_measure_field(A: CoefficientField, dom: GraphDomain,
                          cube: ParabolicCube, grid: SpaceTimeGrid,
                          cells: tuple) -> ScalarField:
    """u(X, t) = omega^{(X, t)}(cube), marched on grid, stored on a box.

    The data is the cube's indicator mollified by one fine cell of grid and
    one step.  cells holds one slice of grid's cells per axis, the lam one
    from the bottom (see `pde._solve_field`): the field holds the march's
    values on the box alone, bit for bit, at every level, and the data on
    the box's bottom cells as its bottom trace.  Pass slice(None) on every
    axis to keep the whole field.
    """
    w_x, w_t = _fine_spacing(grid), grid.dt

    def indicator(pts, t):
        px, pt = _cube_profiles(cube, pts, t, w_x, w_t)
        return px * pt
    return _solve_field(_assemble(A, dom, grid), dom, BoundaryData(indicator),
                        grid, cells, np.zeros(grid.ncells))


# ----------------------------------------------------------------------
# kernel density


@dataclass(frozen=True)
class KernelEstimate:
    """Per-cell densities K_i = omega(Q_i)/|Q_i| on a partition of a cube.

    measure is omega(cube) on the same pole kernel, with its smoothing
    error: what `caloric_measure` returns on that kernel's grid, so a
    caller holding the estimate needs no second march for the cube.  The
    masses K_i |Q_i| sum to measure.value up to roundoff (the tents
    telescope).
    """

    pole: ParabolicPoint
    cube: ParabolicCube
    centers_x: np.ndarray          # (mx, n) tangential centers
    centers_t: np.ndarray          # (mt,)
    K: np.ndarray                  # (mt, mx)
    error_bar: np.ndarray          # coarse-fine gap per cell
    measure: MeasureEstimate       # omega(cube) on the same kernel


def kernel_estimate(A: CoefficientField, dom: GraphDomain,
                    pole: ParabolicPoint, cube: ParabolicCube,
                    depth: int = 2,
                    cfg: PotentialConfig = DEFAULT_CONFIG) -> KernelEstimate:
    """Partitioned estimate of the boundary kernel density on a cube.

    Densities are measure ratios (the defining limit): the cube is split
    into 2^depth parabolic sub-cubes per tangential axis and 4^depth time
    slabs.  All sub-cube measures are products on the pole's kernel,
    Pt^T K Px with the tent partitions Pt (time) and Px (space), whose
    mollified indicators sum exactly to the mollified indicator of the
    whole cube.  The tents telescope only when every slab spans at least
    one time step and every sub-cube at least one fine cell, so the grid
    takes at least 4^depth / 2 steps per r^2 and 2^depth / 2 cells per r.
    The coarse (depth-1) densities aggregated from the same masses give
    per-cell error bars; the fine densities are the estimate.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = cube.center_x.size
    if n != 1:
        raise NotImplementedError("kernel partitions are implemented for n = 1")
    r = cube.side
    mx, mt = 2 ** depth, 4 ** depth
    ex = np.linspace(cube.center_x[0] - r, cube.center_x[0] + r, mx + 1)
    et = np.linspace(cube.center_t - r * r, cube.center_t + r * r, mt + 1)

    kern = _pole_kernel(A, dom, pole, cube, replace(
        cfg, steps_per_r2=max(cfg.steps_per_r2, 4 ** depth / 2),
        cells_per_r=max(cfg.cells_per_r, 2 ** depth / 2)))
    masses = kern.mass(_tents(kern.t, et, kern.w_t),
                       _tents(kern.x[:, 0], ex, kern.w_x))
    measure = _cube_measure(kern, cube)
    sub_vol = (2 * r / mx) * 2 * (r ** 2 / mt) * 2 ** (n - 1)
    K = masses / sub_vol

    # coarse parents from the same masses
    Kc = masses.reshape(mt // 4, 4, mx // 2, 2).sum(axis=(1, 3)) / (8 * sub_vol)
    err = np.abs(K - np.repeat(np.repeat(Kc, 4, axis=0), 2, axis=1))

    centers_x = 0.5 * (ex[:-1] + ex[1:])[:, None]
    centers_t = 0.5 * (et[:-1] + et[1:])
    return KernelEstimate(pole, cube, centers_x, centers_t, K, err, measure)


# ----------------------------------------------------------------------
# Green functions


def _green_grid(pole: ParabolicPoint, horizon: float, X) -> SpaceTimeGrid:
    """Graded grid sized by the diffusion scale sqrt(horizon), its core over
    the pole and the read point X, its growing margin cells capped at 16 h.

    The core axes are aligned so the pole lands exactly on a cell center:
    the discrete impulse then carries no placement offset.
    """
    scale = np.sqrt(horizon)
    h = scale / _GREEN_CELLS
    dt = horizon / _GREEN_STEPS
    margin = _MARGIN_MULT * scale
    xs = [pole.X, X]
    n = pole.X.size - 1
    faces = []
    for k in range(n):
        vals = [p[k] for p in xs]
        core_lo, core_hi = min(vals) - scale, max(vals) + scale
        core_lo += (((pole.X[k] - core_lo) / h) % 1.0 - 0.5) * h
        core_hi = core_lo + np.ceil((core_hi - core_lo) / h) * h
        faces.append(graded_axis([(core_lo, core_hi, h)], core_lo - margin,
                                 core_hi + margin, 16.0 * h))
    lam_core = max(p[-1] for p in xs) + scale
    m_lam = max(1, int(round(pole.X[-1] / h - 0.5)))
    h_lam = pole.X[-1] / (m_lam + 0.5)
    lam_core = np.ceil(lam_core / h_lam) * h_lam
    faces.append(graded_axis([(0.0, lam_core, h_lam)], 0.0,
                             lam_core + margin, 16.0 * h_lam))
    nt = max(16, int(np.ceil(horizon / dt)))
    return _capped(SpaceTimeGrid(faces, pole.t, pole.t + horizon, nt))


def greens_function(A: CoefficientField, dom: GraphDomain,
                    pole: ParabolicPoint, point: ParabolicPoint) -> float:
    """Green function G(X, t; pole) at the ParabolicPoint (X, t).

    A point at or before the pole time reads 0 with no solve.  A later one
    is read (`ScalarField.value_at`) off one forward propagation of a
    discrete unit impulse (`pde.solve_impulse`'s march), on the graded grid of
    the pole whose core covers X and whose horizon is 1.05 x the time since
    the pole.  The march stores only the cells the read can touch: the
    `_probe` box of X on the tangential axes and the lam cells from the
    bottom through the box's top, which gives G bit for bit as the whole
    field does.  X must have the pole's shape and lie in the closed half
    space lam >= 0, with no NaN (checked before any grid is built).
    """
    if pole.X[-1] <= 0:
        raise ValueError("pole must lie strictly inside the half space")
    if point.X.shape != pole.X.shape:
        raise ValueError(f"read point X={point.X.tolist()} has "
                         f"{point.X.size} coordinates; the pole has "
                         f"{pole.X.size}")
    if not (point.X[-1] >= 0.0 and np.all(np.isfinite(point.X))):
        raise ValueError(f"read point X={point.X.tolist()} lies outside the "
                         "half space lam >= 0")
    if point.t <= pole.t:
        return 0.0
    grid = _green_grid(pole, (point.t - pole.t) * 1.05, point.X)
    _require_pole_clearance(grid, pole, cells=2)
    box, _ = _probe(grid, point.X)
    cells = box[:-1] + (slice(0, box[-1].stop),)
    u0 = _impulse(grid, pole.X)
    return _solve_field(_assemble(A, dom, grid), dom, None, grid, cells, u0) \
        .value_at(point.X, point.t)


def green_symmetry_check(A: CoefficientField, dom: GraphDomain,
                         pole: ParabolicPoint, point: ParabolicPoint,
                         shift: float = 0.0) -> float:
    """Space-symmetry / time-invariance deviation of the Green function.

    Compares G(X, t; Z, tau) against G(Z, t + t0; X, tau + t0): the first
    field has pole (Z, tau) and is read at (X, t); the second has pole
    (X, tau + t0) and is read at (Z, t + t0).  Returns the relative
    deviation |v1 - v2| / max(|v1|, |v2|).
    """
    if point.t <= pole.t:
        raise ValueError("the evaluation time must come after the pole time")
    v1 = greens_function(A, dom, pole, point)
    v2 = greens_function(A, dom, ParabolicPoint(point.X, pole.t + shift),
                         ParabolicPoint(pole.X, point.t + shift))
    return abs(v1 - v2) / max(abs(v1), abs(v2), 1e-300)


# ----------------------------------------------------------------------
# ratio diagnostics


def doubling_ratio(A: CoefficientField, dom: GraphDomain,
                   pole: ParabolicPoint, cube: ParabolicCube,
                   cfg: PotentialConfig = DEFAULT_CONFIG) -> float:
    """omega(Q_2r)/omega(Q_r) from one pole kernel on the 2r grid."""
    cube2 = cube.scaled(2.0)
    kern = _pole_kernel(A, dom, pole, cube2, cfg)
    w_r, w_2r = kern.cube_mass(cube), kern.cube_mass(cube2)
    if w_r <= 10.0 * _NOISE_FLOOR:
        raise MeasureBelowNoiseError(
            f"omega(Q_r) = {w_r:.3e} is below 10x the noise floor")
    return w_2r / w_r


@dataclass(frozen=True)
class ReverseHolderResult:
    """Reverse Holder ratio; watermark marks a pole outside the window."""

    ratio: float
    watermark: bool


def reverse_holder_ratio(K: KernelEstimate, q: float = 2.0
                         ) -> ReverseHolderResult:
    """Power-mean over mean of the kernel density on the cube partition;
    q must be finite and >= 2.

    Admissibility window: |(x0, 0) - Z|^2 <= |t0 - tau| and tau - t0 >= 4 r^2.
    Inadmissible poles are computed anyway, for exploration, and
    watermarked.
    """
    if not (np.isfinite(q) and q >= 2.0):
        raise ValueError(f"exponent q = {q} must be finite and >= 2")
    cube, pole = K.cube, K.pole
    r = cube.side
    sep2 = float(np.sum((cube.center_x - pole.X[:-1]) ** 2) + pole.X[-1] ** 2)
    dt = pole.t - cube.center_t
    admissible = (sep2 <= abs(dt)) and (dt >= 4 * r * r)
    mean_q = float(np.mean(np.abs(K.K) ** q) ** (1.0 / q))
    mean_1 = float(np.mean(np.abs(K.K)))
    if mean_1 == 0.0:
        return ReverseHolderResult(float("nan"), not admissible)
    return ReverseHolderResult(mean_q / mean_1, not admissible)


def local_solvability_ratio(u: ScalarField, cube: ParabolicCube) -> float:
    """Boundary-flux over interior-mass ratio on the scale-r cube.

    Returns r^3 * int_{Q_r} (trace ratio)^2 dx dt / int_{T_2r} u^2, the
    quantity bounded by the local solvability constant, and 0.0 for a field
    with no mass on T_2r.  Requires u to be a solution on T_4r, up to the
    last time level the ratio reads, vanishing on the 4x cube trace
    (checked through the recorded bottom data).  The grid must reach the
    height 4r and its time levels must cover the T_2r window
    |t - t0| < 4 r^2; both are checked.
    """
    grid = u.grid
    r = cube.side
    t0 = cube.center_t
    if grid.hi[-1] < 4 * r:
        raise ValueError("grid height does not cover T_4r")
    if grid.t0 > t0 - 4 * r * r or grid.t1 < t0 + 4 * r * r:
        raise ValueError("grid time levels do not cover T_2r")
    rich = nt_trace_ratio(u, cube)   # enforces the 4x-cube trace hypothesis
    x_r = _window(grid, cube.center_x, t0, r)[1:-1]     # |x - x0| < r
    wx = grid.cell_volumes(dict(enumerate(x_r))).reshape(-1)
    lhs = float(np.sum(rich ** 2 * wx[None, :]) * grid.dt)
    box = _window(grid, cube.center_x, t0, 2 * r)
    v = u.values[box]
    w = grid.cell_volumes(dict(enumerate(box[1:])))
    mass = float(np.sum(v * v * w[None]) * grid.dt)
    if mass == 0.0:
        return 0.0
    return lhs * r ** 3 / mass


def harnack_ratio(u: ScalarField, x0, t0: float, r: float) -> float:
    """sup over T_r of u divided by the forward base value u(x0, t0+2r^2, r).

    The field must be nonnegative (down to -1e-12 of its largest value) and
    the base value positive.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    vmin = float(u.values.min())
    if vmin < -1e-12 * max(1.0, float(np.abs(u.values).max())):
        raise ValueError(f"field is not nonnegative (min {vmin:.3e})")

    sup_val = float(u.values[_window(u.grid, x0, t0, r)].max())
    base = u.value_at(np.append(x0, r), t0 + 2 * r * r)
    if base <= 0:
        raise ValueError("base value is not positive")
    return sup_val / base


@dataclass(frozen=True)
class GreenMeasureResult:
    """Sandwich ratios; watermark marks a configuration outside the window."""

    lower_ratio: float      # omega / (rho^{n+1} G_plus), expected >= 1/c
    upper_ratio: float      # omega / (rho^{n+1} G_minus), expected <= c
    watermark: bool


def green_measure_equivalence(A: CoefficientField, dom: GraphDomain,
                              obs: ParabolicPoint, x0, t0: float, rho: float
                              ) -> GreenMeasureResult:
    """Sandwich ratios between omega(Q_{rho/2}) and pole-shifted Green values.

    G_plus has pole ((x0, rho), t0 + rho^2), G_minus ((x0, rho), t0 - rho^2);
    both are read at the observation point, which must come after both
    poles (checked before any solve).  The admissibility window is
    t - t0 >= 4 rho^2 and |(x0, 0) - (x, lam)|^2 <= t - t0.
    """
    if obs.t <= t0 + rho * rho:
        raise ValueError("observation time precedes the shifted pole")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    sep2 = float(np.sum((obs.X[:-1] - x0) ** 2) + obs.X[-1] ** 2)
    dt = obs.t - t0
    admissible = (dt >= 4 * rho * rho) and (sep2 <= dt)
    omega = caloric_measure(A, dom, obs, ParabolicCube(x0, t0, rho / 2.0)).value
    pole_X = np.append(x0, rho)
    vp = greens_function(A, dom, ParabolicPoint(pole_X, t0 + rho * rho), obs)
    vm = greens_function(A, dom, ParabolicPoint(pole_X, t0 - rho * rho), obs)
    scale = rho ** (n + 1)
    if vp <= _NOISE_FLOOR * scale or vm <= _NOISE_FLOOR * scale:
        raise MeasureBelowNoiseError("Green values below the noise floor")
    return GreenMeasureResult(omega / (scale * vp), omega / (scale * vm),
                              not admissible)
