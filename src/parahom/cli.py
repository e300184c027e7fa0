"""Command-line entry point: parahom <subcommand>.

Subcommands: cell, solve, diagnose, maximal, homogenize, sweep.
Configs are JSON (inline or @file); outputs are JSON/CSV plus gnuplot .dat
columns.  The exit code is 0 iff every asserted check in the run passed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cell import effective_matrix
from .coeffs import field_from_json
from .geometry import GraphDomain, ParabolicCube, ParabolicPoint
from .harness import (ExperimentConfig, data_from_json, domain_from_json,
                      emit_report, homogenization_experiment,
                      solvability_sweep)
from .maximal import lp_boundary_norm, nontangential_max
from .pde import SpaceTimeGrid, save_field, solve_dirichlet
from .potential import (caloric_measure, doubling_ratio,
                        green_measure_equivalence, green_symmetry_check,
                        kernel_estimate, reverse_holder_ratio)


def _load_spec(text):
    if text is None:
        return None
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text      # bare preset name


def _cmd_cell(args):
    A = field_from_json(_load_spec(args.coeff), d=args.d)
    em = effective_matrix(A, args.resolution)
    out = {"Abar": [[float(v) for v in row] for row in em.Abar],
           "residuals": [float(r) for r in em.residuals],
           "resolution": em.resolution}
    with open(args.out, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"Abar written to {args.out}")
    return 0


def _grid_from_args(args, d):
    shape = tuple(int(s) for s in args.grid.split(","))
    if len(shape) != d:
        raise SystemExit(f"--grid needs {d} comma-separated cell counts")
    box = _load_spec(args.box) if args.box else [[-4.0, 4.0]] * (d - 1) + [[0.0, 4.0]]
    lo = tuple(b[0] for b in box)
    hi = tuple(b[1] for b in box)
    return SpaceTimeGrid.uniform(lo, hi, shape, args.t0, args.t1, args.nt)


def _cmd_solve(args):
    dom_spec = _load_spec(args.domain) or {"kind": "halfspace"}
    d = args.d
    dom = domain_from_json(dom_spec, d=d)
    A = field_from_json(_load_spec(args.coeff), d=d)
    f = data_from_json(_load_spec(args.data), d=d)
    grid = _grid_from_args(args, d)
    u = solve_dirichlet(A, dom, f, grid)
    save_field(u, args.out)
    with open(args.out + ".json", "w") as fh:     # the inputs, as given
        json.dump({k: v for k, v in vars(args).items() if k != "fn"}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")
    print(f"field written to {args.out} (+ .json sidecar)")
    return 0


def _cmd_maximal(args):
    dom_spec = _load_spec(args.domain) or {"kind": "halfspace"}
    d = args.d
    dom = domain_from_json(dom_spec, d=d)
    if not isinstance(dom, GraphDomain):
        raise SystemExit("parahom maximal scans the one lateral face of a "
                         "graph or half-space domain; for a cylinder's faces "
                         "use parahom homogenize")
    if not 1.0 < args.p < np.inf:
        raise SystemExit(f"--p must lie in (1, inf), got {args.p}")
    if not (args.eta > dom.m and np.isfinite(args.eta)):
        raise SystemExit(f"--eta must be finite and exceed the domain's "
                         f"Lipschitz constant m = {dom.m:g}, got {args.eta}")
    A = field_from_json(_load_spec(args.coeff), d=d)
    f = data_from_json(_load_spec(args.data), d=d)
    grid = _grid_from_args(args, d)
    u = solve_dirichlet(A, dom, f, grid)
    fields = nontangential_max(u, args.eta, dom)
    N, = fields.values()
    norm = lp_boundary_norm(fields, args.p)
    tang = u.grid.tangential_centers()
    times = u.grid.times()
    vals = N.values.reshape(times.size, -1)
    n = tang.shape[1]
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(["x"] if n == 1 else [f"x{k + 1}" for k in range(n)])
                 + ",t,N_value\n")
        for i, X in enumerate(tang):
            xs = ",".join(repr(float(x)) for x in X)
            for k, t in enumerate(times):
                fh.write(f"{xs},{float(t)!r},{float(vals[k, i])!r}\n")
    print(f"N written to {args.out}; ||N(u)||_{args.p} = {norm!r}")
    return 0


def _coords(text, flag, d, layout):
    """A JSON list of d + 1 numbers, laid out as `layout`."""
    vals = json.loads(text)
    if not isinstance(vals, list) or len(vals) != d + 1:
        raise SystemExit(f"{flag} needs {d + 1} numbers {layout} for --d {d}, "
                         f"got {text}")
    return vals


def _cmd_diagnose(args):
    d = args.d
    p = _coords(args.pole, "--pole", d, "[x..., lam, tau]")
    c = _coords(args.cube, "--cube", d, "[x0..., t0, r]")
    pole = ParabolicPoint(np.asarray(p[:-1]), p[-1])
    cube = ParabolicCube(np.asarray(c[:-2]), c[-2], c[-1])
    dom = domain_from_json(_load_spec(args.domain) or {"kind": "halfspace"}, d=d)
    A = field_from_json(_load_spec(args.coeff), d=d)
    rows = []
    if args.check == "doubling":
        rows.append(("doubling", doubling_ratio(A, dom, pole, cube),
                     None, True, False))
    elif args.check == "rh":
        K = kernel_estimate(A, dom, pole, cube)
        res = reverse_holder_ratio(K, q=args.q)
        rows.append(("rh", res.ratio, float(K.error_bar.max()),
                     res.ratio >= 1.0, res.watermark))
    elif args.check == "caloric-measure":
        res = caloric_measure(A, dom, pole, cube)
        rows.append(("caloric-measure", res.value, res.smoothing_error,
                     0.0 <= res.value <= 1.0 + 1e-6, False))
    elif args.check == "green-sym":
        point = ParabolicPoint(pole.X + 0.5, pole.t + 2.0)
        dev = green_symmetry_check(A, dom, pole, point, shift=args.shift)
        rows.append(("green-sym", dev, None, True, False))
    elif args.check == "green-measure":
        obs = pole
        res = green_measure_equivalence(A, dom, obs, cube.center_x,
                                        cube.center_t, cube.side)
        rows.append(("green-measure-lower", res.lower_ratio, None, True,
                     res.watermark))
        rows.append(("green-measure-upper", res.upper_ratio, None, True,
                     res.watermark))
    with open(args.out, "w", newline="") as fh:
        fh.write("check,value,error_bar,pass,watermark\n")
        for name, val, err, ok, wm in rows:
            fh.write(f"{name},{val!r},{'' if err is None else repr(err)},"
                     f"{int(ok)},{int(wm)}\n")
    print(f"diagnostics written to {args.out}")
    return 0 if all(r[3] for r in rows) else 1


def _cmd_homogenize(args):
    cfg = ExperimentConfig.from_json(_load_spec(args.config) or {})
    report = homogenization_experiment(cfg)
    paths = emit_report(report, fmt=args.format, outdir=cfg.outdir,
                        name=args.name)
    print("report written:", *paths)
    return 0 if report.monotone_verdict else 1


def _cmd_sweep(args):
    cfg = ExperimentConfig.from_json(_load_spec(args.config) or {})
    report = solvability_sweep(cfg)
    paths = emit_report(report, fmt=args.format, outdir=cfg.outdir,
                        name=args.name)
    print("report written:", *paths)
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="parahom",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("cell", help="effective matrix from the cell problem")
    p.add_argument("--coeff", required=True)
    p.add_argument("--resolution", type=int, default=128)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", default="Abar.json")
    p.set_defaults(fn=_cmd_cell)

    for name, fn in (("solve", _cmd_solve), ("maximal", _cmd_maximal)):
        p = sub.add_parser(name)
        p.add_argument("--coeff", required=True)
        p.add_argument("--domain", default=None)
        p.add_argument("--data", default=None)
        p.add_argument("--grid", required=True,
                       help="comma-separated cells per spatial axis")
        p.add_argument("--box", default=None,
                       help="JSON [[lo,hi],...] spatial box")
        p.add_argument("--t0", type=float, default=0.0)
        p.add_argument("--t1", type=float, default=1.0)
        p.add_argument("--nt", type=int, default=64)
        p.add_argument("--d", type=int, default=2)
        if name == "maximal":
            p.add_argument("--eta", type=float, default=1.0)
            p.add_argument("--p", type=float, default=2.0)
            p.add_argument("--out", default="maximal.csv")
        else:
            p.add_argument("--out", default="field.bin")
        p.set_defaults(fn=fn)

    p = sub.add_parser("diagnose")
    p.add_argument("--check", required=True,
                   choices=["doubling", "rh", "caloric-measure", "green-sym",
                            "green-measure"])
    p.add_argument("--coeff", required=True)
    p.add_argument("--domain", default=None)
    p.add_argument("--pole", required=True,
                   help="JSON [x..., lam, tau] pole coordinates")
    p.add_argument("--cube", required=True,
                   help="JSON [x0..., t0, r] boundary cube")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", default="diagnose.csv")
    p.set_defaults(fn=_cmd_diagnose)

    for name, fn in (("homogenize", _cmd_homogenize), ("sweep", _cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON or @file")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--name", default=name)
        p.set_defaults(fn=fn)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
