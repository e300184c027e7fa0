"""Outside-in instrumentation of parahom and the per-layer metrics it yields.

Nothing in the package is edited.  Each public function of a layer module
is replaced by a traced wrapper under every name that refers to it, so a
`from .pde import solve_dirichlet` copy held by `harness` or `maximal` is
traced as well.  The scipy calls the layers make are wrapped where the
layer looks them up: `splu` through `pde.spla`, `maximum_filter1d` as bound
in `maximal`, `pcg` as bound in `cell`.  Coefficient evaluation is traced
at `CoefficientField.__call__`, boundary data at the callables handed to
the `pde` solves.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import types

import numpy as np
from parahom import cell, coeffs, harness, maximal, oracles, pde, potential
from parahom.pde import BoundaryData

from tracer import Patch, Tracer

LAYERS = {"cell": cell, "pde": pde, "maximal": maximal,
          "potential": potential, "harness": harness, "oracles": oracles}

# spans whose self time is reported under their own metric rather than
# under the self time of the layer that owns them
OWN_METRIC = {
    "maximal.maximum_filter1d": "maximal.filter_s",
    "pde.splu": "pde.factor_s",
    "pde.lu_solve": "pde.lu_solve_s",
    "pde.data": "pde.data_s",
    "cell.pcg": "cell.pcg_s",
    "coeffs.eval": "coeffs.eval_s",
    "geometry.flatten_pullback": "geometry.pullback_s",
    "harness.emit_report": "harness.report_s",
}

POTENTIAL_DIAGNOSTICS = ("caloric_measure", "caloric_measure_field",
                         "doubling_ratio", "kernel_estimate",
                         "reverse_holder_ratio", "local_solvability_ratio")

COUNTERS = ("maximal.filter_calls", "maximal.filter_bytes",
            "pde.lu_solve_calls", "pde.rhs_cols", "pde.factor_count",
            "pde.fill_nnz", "pde.data_calls", "pde.cell_steps",
            "cell.pcg_iters", "coeffs.eval_points", "harness.report_bytes")

ROOT = "workload"


def _rebind_everywhere(patch: Patch, original, replacement):
    """Point every module-level name bound to `original` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if not (name == "parahom" or name.startswith("parahom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                patch.set(mod, attr, replacement)


class _TracedLU:
    """SuperLU factor whose solves are traced and counted."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        t = self._tracer
        rec = t.open("pde.lu_solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            t.close(rec)
            cols = rhs.shape[1] if rhs.ndim == 2 else 1
            t.count("pde.lu_solve_calls")
            t.count("pde.rhs_cols", cols)
            t.count("pde.cell_steps", rhs.shape[0] * cols)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _trace_data(tracer: Tracer, value):
    """Traced copy of boundary data handed to a pde solve, else `value`."""
    def traced(fn):
        inner = tracer.wrap("pde.data", fn)

        def call(*args):
            tracer.count("pde.data_calls")
            return inner(*args)
        return call

    if isinstance(value, BoundaryData):
        return dataclasses.replace(value, evaluator=traced(value.evaluator))
    if isinstance(value, dict) and value and all(
            isinstance(k, tuple) for k in value):
        return {k: (traced(fn) if callable(fn) else fn)
                for k, fn in value.items()}
    return value


def instrument(tracer: Tracer, patch: Patch):
    """Install every wrapper; `patch.undo()` removes them again."""
    for layer, mod in LAYERS.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            wrapped = tracer.wrap(f"{layer}.{name}", fn)
            if layer == "pde" and name.startswith("solve_"):
                wrapped = _with_traced_data(tracer, wrapped)
            _rebind_everywhere(patch, fn, wrapped)

    splu = pde.spla.splu

    def traced_splu(A, *args, **kwargs):
        rec = tracer.open("pde.splu")
        try:
            lu = splu(A, *args, **kwargs)
        finally:
            tracer.close(rec)
        rec = tracer.open("trace.fill")        # bookkeeping, not pde work
        tracer.count("pde.factor_count")
        tracer.count("pde.fill_nnz", lu.L.nnz + lu.U.nnz)
        tracer.close(rec)
        return _TracedLU(lu, tracer)

    spla = types.SimpleNamespace(**vars(pde.spla))
    spla.splu = traced_splu
    patch.set(pde, "spla", spla)

    filt = tracer.wrap("maximal.maximum_filter1d", maximal.maximum_filter1d)

    def traced_filter(a, *args, **kwargs):
        tracer.count("maximal.filter_calls")
        tracer.count("maximal.filter_bytes", 2 * a.nbytes)   # read + write
        return filt(a, *args, **kwargs)
    patch.set(maximal, "maximum_filter1d", traced_filter)

    pcg = tracer.wrap("cell.pcg", cell.pcg)

    def traced_pcg(*args, **kwargs):
        x, its, relres = pcg(*args, **kwargs)
        tracer.count("cell.pcg_iters", its)
        tracer.high("cell.pcg_relres_max", relres)
        return x, its, relres
    patch.set(cell, "pcg", traced_pcg)

    evaluate = tracer.wrap("coeffs.eval", coeffs.CoefficientField.__call__)
    depth = [0]         # points are counted at the outermost evaluation only

    def traced_call(field, X):
        if not depth[0]:
            tracer.count("coeffs.eval_points",
                         int(np.prod(np.shape(X)[:-1], dtype=np.int64)))
        depth[0] += 1
        try:
            return evaluate(field, X)
        finally:
            depth[0] -= 1
    patch.set(coeffs.CoefficientField, "__call__", traced_call)

    pullback = tracer.wrap("geometry.flatten_pullback", pde.flatten_pullback)

    def traced_pullback(dom, A):
        out = pullback(dom, A)
        if out.evaluator is not A.evaluator:
            out = dataclasses.replace(out, evaluator=tracer.wrap(
                "geometry.flatten_pullback", out.evaluator))
        return out
    patch.set(pde, "flatten_pullback", traced_pullback)

    report = harness.emit_report

    def traced_report(*args, **kwargs):
        paths = report(*args, **kwargs)
        tracer.count("harness.report_bytes",
                     sum(os.path.getsize(p) for p in paths))
        return paths
    patch.set(harness, "emit_report", traced_report)


def _with_traced_data(tracer: Tracer, solve):
    def call(*args, **kwargs):
        args = [_trace_data(tracer, a) for a in args]
        kwargs = {k: _trace_data(tracer, v) for k, v in kwargs.items()}
        return solve(*args, **kwargs)
    return call


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name."""
    incl, own, _ = tracer.totals()
    out = {f"{layer}.self_s": 0.0 for layer in
           ("maximal", "pde", "cell", "potential", "harness", "oracles")}
    out.update({metric: 0.0 for metric in OWN_METRIC.values()})
    for name, seconds in own.items():
        if name == ROOT:
            continue
        metric = OWN_METRIC.get(name, name.split(".")[0] + ".self_s")
        out[metric] = out.get(metric, 0.0) + seconds
    out["maximal.cone_s"] = sum(
        (s for n, s in incl.items() if n.startswith("maximal.nontangential_max")),
        0.0)
    for key in COUNTERS:
        out[key] = int(tracer.counts[key])
    out["cell.pcg_relres_max"] = float(tracer.maxima.get("cell.pcg_relres_max", 0.0))
    busy = tracer.outermost("pde.")
    out["pde.cell_steps_per_s"] = out["pde.cell_steps"] / busy if busy else 0.0
    for diag in POTENTIAL_DIAGNOSTICS:
        out[f"potential.{diag}_s"] = incl.get(f"potential.{diag}", 0.0)
    out["unattributed_s"] = own.get(ROOT, 0.0)
    return out
