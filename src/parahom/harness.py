"""Experiment orchestration: homogenization sweeps, diagnostic batteries,
machine-readable reports.

Reports are deterministic: identical configs produce byte-identical
files.  Rows carry no wall-clock timings (they once had a `runtime` field,
always serialized as null).  The config has no `diagnostics` list (the
sweep runs a fixed set of checks), no `seed` (no run draws random numbers)
and no `min_cells_per_period` (the resolution floor is 8 cells per
coefficient period).  Old configs that name any of them still load, and
ignore them; any other key the config does not know raises ValueError
before any solve, so a misspelt knob never runs with its default.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .cell import effective_matrix
from .coeffs import (CoefficientField, constant_matrix_field, field_from_json,
                     preset, scale_field)
from .geometry import GraphDomain, LipschitzCylinder, ParabolicCube, ParabolicPoint
from .maximal import boundary_data_norm, lp_boundary_norm, nontangential_max
from .oracles import halfspace_kernel_cell_average, halfspace_measure
from .pde import BoundaryData, SpaceTimeGrid, _run, solve_dirichlet
from .potential import (PotentialConfig, _capped, caloric_measure,
                        caloric_measure_field, doubling_ratio, kernel_estimate,
                        local_solvability_ratio, reverse_holder_ratio)

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "homogenization_experiment",
    "solvability_sweep",
    "local_solvability_at_scale",
    "q_decay_constant",
    "emit_report",
    "data_from_json",
    "domain_from_json",
    "default_compact_subcylinder",
]


_CELLS_PER_PERIOD = 8     # resolution floor of the homogenization grid
# config keys that old configs carry and no run reads; they load, ignored
_DROPPED_KEYS = frozenset({"diagnostics", "seed", "min_cells_per_period"})


@dataclass
class ExperimentConfig:
    """Knobs for the homogenization experiment and the diagnostic sweep."""

    coeff: object = "laminate"
    domain: Optional[dict] = None
    data: Optional[dict] = None
    eps_list: tuple = (0.5, 0.25, 0.125, 0.0625)
    p_list: tuple = (2.0,)
    resolution: int = 128
    nt: int = 192
    cell_resolution: int = 128
    eta: float = 1.0
    n: int = 1
    outdir: str = "."
    r_list: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        self.eps_list = tuple(float(e) for e in self.eps_list)
        if not self.eps_list or any(not (0 < e <= 1) for e in self.eps_list):
            raise ValueError("eps_list must hold values in (0, 1], got "
                             f"{list(self.eps_list)}")
        self.p_list = tuple(float(p) for p in self.p_list)
        if len(self.p_list) != 1 or not (1.0 < self.p_list[0] < np.inf):
            raise ValueError("p_list must hold exactly one exponent in "
                             f"(1, inf), got {list(self.p_list)}")
        self.r_list = tuple(float(r) for r in self.r_list)
        if not self.r_list or any(not r > 0 for r in self.r_list):
            raise ValueError("r_list must hold positive scales, got "
                             f"{list(self.r_list)}")
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError("cone opening eta must be positive and "
                             f"finite, got {self.eta}")
        for name in ("resolution", "nt", "cell_resolution", "n"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) \
                    or v < 1:
                raise ValueError(f"{name} must be a positive int, got {v!r}")
            setattr(self, name, int(v))

    def required_resolution(self) -> int:
        eps_min = min(self.eps_list)
        return int(np.ceil(_CELLS_PER_PERIOD / eps_min))

    @property
    def d(self) -> int:
        return self.n + 1

    @classmethod
    def from_json(cls, spec) -> "ExperimentConfig":
        if isinstance(spec, str):
            spec = json.loads(spec)
        unknown = set(spec) - set(cls.__dataclass_fields__) - _DROPPED_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: v for k, v in spec.items()
                      if k not in _DROPPED_KEYS})

    def to_jsonable(self) -> dict:
        out = asdict(self)
        for k, v in out.items():
            if isinstance(v, tuple):
                out[k] = list(v)
        return out


def domain_from_json(spec, d: int = 2):
    if spec is None:
        return LipschitzCylinder(base_box=((0.0, 1.0),) * d, T=1.0)
    if spec.get("kind") == "cylinder":
        return LipschitzCylinder.from_json(spec)
    if spec.get("kind") == "graph":
        return GraphDomain.from_json(spec)
    if spec.get("kind") == "halfspace":
        box = spec.get("box", [[-4.0, 4.0]] * (d - 1))
        return GraphDomain(m=0.0, box=[tuple(b) for b in box])
    raise ValueError(f"unknown domain kind {spec.get('kind')!r}")


def _positive(spec, key: str, default: float) -> float:
    """spec[key] (default if absent) as a finite positive float."""
    val = float(spec.get(key, default))
    if not (np.isfinite(val) and val > 0):
        raise ValueError(f"data {key!r} must be finite and positive, "
                         f"got {val}")
    return val


def data_from_json(spec, d: int = 2) -> BoundaryData:
    """Boundary data from a config dict; default is a smooth ramped bump.
    The time ramp and the bump's width must be finite and positive."""
    if spec is None:
        spec = {"kind": "bump"}
    kind = spec.get("kind", "bump")
    if kind == "bump":
        center = np.asarray(spec.get("center", [0.5] + [0.0] * (d - 1)), dtype=float)
        width = _positive(spec, "width", 0.25)
        ramp = _positive(spec, "ramp", 0.1)

        def ev(pts, t):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            k = min(pts.shape[1], center.size)
            r2 = np.sum((pts[:, :k] - center[:k]) ** 2, axis=1)
            gt = 1.0 - np.exp(-(max(t, 0.0) / ramp) ** 2)
            return gt * np.exp(-r2 / width ** 2)

        return BoundaryData(ev)
    if kind == "expr":
        from .coeffs import compile_expression

        fn = compile_expression(spec["expr"], d)
        ramp = _positive(spec, "ramp", 0.1)

        def ev2(pts, t):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            pad = np.zeros((pts.shape[0], d))
            pad[:, :pts.shape[1]] = pts
            gt = 1.0 - np.exp(-(max(t, 0.0) / ramp) ** 2)
            return gt * fn(pad)

        return BoundaryData(ev2)
    raise ValueError(f"unknown data kind {kind!r}")


def default_compact_subcylinder(dom: LipschitzCylinder):
    """Interior compact K: parabolic margin 1/4 of the domain diameter from
    the lateral boundary, and t >= T/4."""
    widths = [hi - lo for lo, hi in dom.base_box]
    from .geometry import parabolic_norm

    diam = float(parabolic_norm(np.asarray(widths, dtype=float), dom.T))
    margin = min(0.25 * diam, 0.45 * min(widths))
    box = tuple((lo + margin, hi - margin) for lo, hi in dom.base_box)
    return box, dom.T / 4.0


@dataclass
class ConvergenceReport:
    """Rows of the homogenization sweep, sorted by eps descending."""

    rows: list
    Abar: list
    compact_K: dict
    monotone_verdict: bool
    config: dict
    version: str = __version__

    def to_jsonable(self) -> dict:
        return {"kind": "convergence_report", "version": self.version,
                "config": self.config, "Abar": self.Abar,
                "compact_K": self.compact_K, "rows": self.rows,
                "monotone_verdict": self.monotone_verdict}


def homogenization_experiment(cfg: ExperimentConfig) -> ConvergenceReport:
    """Oscillating solves against the effective limit on a Lipschitz cylinder.

    For each eps the Dirichlet problem with coefficients A(X/eps) is solved
    on the same grid as the effective problem (cancelling discretization
    bias), the sup distance is measured on the compact interior K, and the
    lateral maximal-function norm ratio is recorded.  Like the potential
    grids, no axis may exceed 768 cells.  At most one whole space-time
    field is alive at a time: the effective field is dropped once its box
    on K is copied out, and each eps field once its row is computed.
    """
    if cfg.resolution < cfg.required_resolution():
        raise ValueError(
            f"resolution {cfg.resolution} cannot resolve eps="
            f"{min(cfg.eps_list)}: need at least {cfg.required_resolution()} "
            f"cells per axis ({_CELLS_PER_PERIOD} per period)")
    d = cfg.d
    A = field_from_json(cfg.coeff, d=d)
    dom = domain_from_json(cfg.domain, d=d)
    if not isinstance(dom, LipschitzCylinder):
        raise ValueError("the homogenization experiment runs on cylinders")
    f = data_from_json(cfg.data, d=d)
    grid = _capped(SpaceTimeGrid.uniform(tuple(lo for lo, _ in dom.base_box),
                                         tuple(hi for _, hi in dom.base_box),
                                         (cfg.resolution,) * d, 0.0, dom.T,
                                         cfg.nt))

    em = effective_matrix(A, cfg.cell_resolution)
    Abar_field = constant_matrix_field(em.Abar, label="Abar")

    K_box, K_t = default_compact_subcylinder(dom)
    K = (_run(grid.times() >= K_t),) + tuple(
        _run((grid.axis_centers(k) >= lo) & (grid.axis_centers(k) <= hi))
        for k, (lo, hi) in enumerate(K_box))
    # a copy, so that the effective field is not kept alive by a view
    ubar_K = solve_dirichlet(Abar_field, dom, f, grid).values[K].copy()
    p = cfg.p_list[0]
    f_norm = boundary_data_norm(f, dom, grid, p)

    def row(eps):
        ueps = solve_dirichlet(scale_field(A, eps), dom, f, grid)
        n_norm = lp_boundary_norm(nontangential_max(ueps, cfg.eta, dom), p)
        dist = float(np.abs(ueps.values[K] - ubar_K).max())
        return {"eps": eps, "distance": dist, "nt_norm": n_norm,
                "nt_ratio": n_norm / f_norm, "distance_over_eps": dist / eps}

    rows = [row(eps) for eps in sorted(cfg.eps_list, reverse=True)]
    last = [r["distance"] for r in rows[-3:]]
    verdict = all(a > b for a, b in zip(last, last[1:]))
    return ConvergenceReport(
        rows=rows,
        Abar=[[float(v) for v in row] for row in em.Abar],
        compact_K={"box": [list(b) for b in K_box], "t_min": K_t,
                   "margin_rule": "parabolic distance >= diam/4, t >= T/4"},
        monotone_verdict=bool(verdict),
        config=cfg.to_jsonable())


# ----------------------------------------------------------------------
# diagnostic sweep


@dataclass
class SweepReport:
    rows: list
    config: dict
    version: str = __version__

    def to_jsonable(self) -> dict:
        return {"kind": "sweep_report", "version": self.version,
                "config": self.config, "rows": self.rows}

    @property
    def all_passed(self) -> bool:
        return all(r.get("passed", True) for r in self.rows)


def _row(check, coeff, domain, params, value, error_bar=None, passed=True,
         watermark=False):
    return {"check": check, "coeff": coeff, "domain": domain,
            "params": json.dumps(params, sort_keys=True), "value": value,
            "error_bar": error_bar, "passed": bool(passed),
            "watermark": bool(watermark)}


def solvability_sweep(cfg: ExperimentConfig,
                      pot_cfg: PotentialConfig = None) -> SweepReport:
    """Diagnostic battery over half-space and graph-chart configurations.

    Constant-coefficient rows are checked against the method-of-images
    closed forms (5% tolerance); periodic-preset rows check uniformity of
    the local-solvability ratio across scales (factor 2); inadmissible
    poles are included once, watermarked, to exercise the interface.
    """
    pot_cfg = pot_cfg or PotentialConfig()
    rows = []
    d = cfg.d
    halfspace_dom = GraphDomain(m=0.0, box=((-64.0, 64.0),) * (d - 1))

    # --- constant coefficients vs the images oracle; one pole kernel gives
    # the measure row and the kernel densities
    A1 = preset("constant", d=d)
    pole = ParabolicPoint(np.asarray([0.0] * (d - 1) + [1.0]), 5.0)
    cube = ParabolicCube(np.zeros(d - 1), 0.0, 0.5)
    K = kernel_estimate(A1, halfspace_dom, pole, cube, depth=2, cfg=pot_cfg)
    est = K.measure
    oracle = halfspace_measure(pole.X[:-1], pole.X[-1], pole.t,
                               cube.center_x, cube.center_t, cube.side)
    rel = abs(est.value - oracle) / oracle
    rows.append(_row("caloric-measure-oracle", A1.label, "halfspace",
                     {"r": cube.side}, rel, est.smoothing_error,
                     rel <= 0.05))

    dratio = doubling_ratio(A1, halfspace_dom, pole, cube, pot_cfg)
    o_2r = halfspace_measure(pole.X[:-1], pole.X[-1], pole.t, cube.center_x,
                             cube.center_t, 2 * cube.side)
    rel = abs(dratio - o_2r / oracle) / (o_2r / oracle)
    rows.append(_row("doubling-oracle", A1.label, "halfspace",
                     {"r": cube.side}, rel, None, rel <= 0.05))

    rh = reverse_holder_ratio(K, q=2.0)
    K_or = np.empty_like(K.K)
    for i, tc in enumerate(K.centers_t):
        for j, xc in enumerate(K.centers_x[:, 0]):
            K_or[i, j] = halfspace_kernel_cell_average(
                pole.X[:-1], pole.X[-1], pole.t, [xc], tc,
                cube.side / K.K.shape[1])
    rh_or = float(np.mean(K_or ** 2) ** 0.5 / np.mean(K_or))
    rel = abs(rh.ratio - rh_or) / rh_or
    rows.append(_row("rh-oracle", A1.label, "halfspace", {"q": 2.0}, rel,
                     float(K.error_bar.max()), rel <= 0.05))

    # watermark row: pole deliberately outside the admissibility window
    near_pole = ParabolicPoint(np.asarray([0.0] * (d - 1) + [1.0]), 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        K_bad = kernel_estimate(A1, halfspace_dom, near_pole, cube, depth=1,
                                cfg=pot_cfg)
        rh_bad = reverse_holder_ratio(K_bad, q=2.0)
    rows.append(_row("rh-inadmissible", A1.label, "halfspace",
                     {"q": 2.0, "tau": near_pole.t}, rh_bad.ratio, None,
                     True, watermark=rh_bad.watermark))

    # --- local solvability uniformity across scales for a periodic preset
    A = preset("trig", d=d)
    values = []
    for r in cfg.r_list:
        ratio = local_solvability_at_scale(A, r)
        values.append(ratio)
        rows.append(_row("localsolv", A.label, "halfspace", {"r": r},
                         ratio, None, True))
    vmax, vmin = max(values), min(values)
    rows.append(_row("localsolv-uniformity", A.label, "halfspace",
                     {"r_list": list(cfg.r_list)}, vmax / vmin, None,
                     vmax / vmin <= 2.0))

    # --- graph-chart configuration (flattening path)
    graph = GraphDomain(m=0.5, box=((-48.0, 48.0),),
                        phi=lambda x: 0.5 * np.abs(np.sin(np.asarray(x)[..., 0])) - 0.25)
    est_g = caloric_measure(A1, graph, pole, cube, pot_cfg)
    rows.append(_row("caloric-measure", A1.label, "graph", {"m": 0.5},
                     est_g.value, est_g.smoothing_error,
                     0.0 <= est_g.value <= 1.0 + 1e-6))
    return SweepReport(rows=rows, config=cfg.to_jsonable())


def q_decay_constant(A: CoefficientField, R_cells: int) -> dict:
    """Normalized vertical-difference decay constant at window scale R.

    A Green-like field is generated on the box {|x| < 2R, 0 < lam < 4R}
    (zero lateral data, unit impulse at (0, 3R) released at t = -2R^2) and
    the shifted difference Qu(., lam) = u(., lam + 1) - u is measured
    where lam >= R inside the half-height window over (0, 4R^2), with 160
    time steps over (-2R^2, 8R^2):

        C(R) = R * sup |Qu| / (R^{-(n+3)} int_{lower window} u^2)^{1/2}.

    Boundedness of C(R) across R is the decay property under test; A must
    be 1-periodic in lam, and R is given in grid cells (8 cells resolve one
    period).  The grid has 4 R_cells cells per axis, at most 768.
    """
    from .pde import q_difference, solve_impulse

    h = 1.0 / 8
    R = R_cells * h
    nx = int(round(4 * R / h))
    nlam = int(round(4 * R / h))
    grid = _capped(SpaceTimeGrid.uniform((-2 * R, 0.0), (2 * R, 4 * R),
                                         (nx, nlam), -2 * R * R, 8 * R * R,
                                         160))
    dom = GraphDomain(m=0.0, box=((-2 * R, 2 * R),))
    u = solve_impulse(A, dom, np.asarray([0.0, 3 * R]), -2 * R * R, grid)
    qu = q_difference(u, 1.0)

    times = grid.times()
    lamc, qlamc = grid.axis_centers(1), qu.grid.axis_centers(1)
    sup_q = float(np.abs(qu.values[_run((times > 0) & (times <= 4 * R * R)),
                                   :, _run((qlamc >= R) & (qlamc < 2 * R))]
                         ).max())
    v = u.values[_run((times > 0) & (times <= 8 * R * R)), :,
                 _run(lamc < 3 * R)]
    mass = float(np.sum(v * v) * np.prod(grid.h) * grid.dt)
    n = grid.d - 1
    denom = np.sqrt(mass / R ** (n + 3))
    return {"R_cells": R_cells, "R": R, "sup_Q": sup_q, "mass": mass,
            "constant": R * sup_q / denom}


def local_solvability_at_scale(A: CoefficientField, r: float) -> float:
    """Solve one vanishing-trace configuration and return its ratio.

    The solution is the caloric measure of the cube Q_r(5.5 r, -16 r^2),
    outside Q_4r, so the trace vanishes on the 4x cube while mass flows
    over T_4r.  The step is set by a grid reaching t = 16.5 r^2, but the
    march stops at that grid's first time level at or past 4 r^2: the
    ratio reads no later level.  Like the potential grids, no axis may
    exceed 768 cells.

    The march stores only the box the ratio reads: the cells with
    |x| < 4 r and those whose lower lam face is below 4 r, at every kept
    level.  Those x cells are every center the 4x-cube trace check tests
    (the rest lie outside |x| < 4 r), so the check sees every point it
    would see on the whole field, and the box reaches the height 4 r
    exactly when the solve grid does.  The data's x-support [4.5 r, 6.5 r]
    lies outside |x| < 4 r at every level anyway.
    """
    h = min(r / 8.0, 0.25)
    dt = r * r / 12.0
    lo = (-6.0 * r,)
    hi = (max(8.0 * r, 5.5 * r + 2.5 * r),)
    height = 6.0 * r
    t_lo = -17.0 * r * r - 2.0 * dt
    t_hi = 16.5 * r * r
    shape = (int(np.ceil((hi[0] - lo[0]) / h)), int(np.ceil(height / h)))
    nt = int(np.ceil((t_hi - t_lo) / dt))
    full = _capped(SpaceTimeGrid.uniform(lo + (0.0,), hi + (height,), shape,
                                         t_lo, t_hi, nt))
    # t1 is one of the full grid's own levels, which keeps dt and every
    # kept level bitwise equal to the full grid's
    times = full.times()
    k = int(np.searchsorted(times, 4.0 * r * r))
    grid = replace(full, t1=times[k], nt=k)
    cells = (_run(np.abs(grid.axis_centers(0)) < 4.0 * r),
             _run(grid.faces[1][:-1] < 4.0 * r))
    dom = GraphDomain(m=0.0, box=((lo[0], hi[0]),))
    data_cube = ParabolicCube(np.asarray([5.5 * r]), -16.0 * r * r, r)
    u = caloric_measure_field(A, dom, data_cube, grid, cells)
    return local_solvability_ratio(u, ParabolicCube(np.zeros(1), 0.0, r))


# ----------------------------------------------------------------------
# serialization


def _jsonable(obj):
    if isinstance(obj, (ConvergenceReport, SweepReport)):
        return obj.to_jsonable()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_report(report, fmt: str, outdir: str, name: str) -> list:
    """Serialize a report deterministically; returns the written paths.

    json: canonical sorted-key JSON.  csv: one row per sweep/convergence
    entry.  Both formats also get a gnuplot-ready .dat column file when the
    report carries numeric rows: the numeric keys of the first row, one
    column each, with nan for a missing value and 0/1 for a flag.
    """
    import os

    payload = _jsonable(report)
    os.makedirs(outdir, exist_ok=True)
    paths = []
    if fmt == "json":
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        paths.append(path)
    elif fmt == "csv":
        path = os.path.join(outdir, f"{name}.csv")
        rows = payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            keys = sorted(rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            for r in rows:
                writer.writerow({k: _csv_cell(r.get(k)) for k in keys})
        else:
            buf.write("# empty report\n")
        buf.write(f"# config: {json.dumps(payload.get('config', {}), sort_keys=True)}\n")
        buf.write(f"# version: {payload.get('version', '')}\n")
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
        paths.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")

    rows = payload.get("rows", [])
    numeric_keys = []
    if rows:
        numeric_keys = [k for k in sorted(rows[0].keys())
                        if isinstance(rows[0][k], (int, float))]
    if numeric_keys:
        dat = os.path.join(outdir, f"{name}.dat")
        with open(dat, "w") as fh:
            fh.write("# " + " ".join(numeric_keys) + "\n")
            for r in rows:
                fh.write(" ".join(_dat_cell(r.get(k))
                                  for k in numeric_keys) + "\n")
        paths.append(dat)
    return paths


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _dat_cell(v):
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return str(int(v))
    return _csv_cell(v)
