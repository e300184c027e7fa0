"""The three benchmark workloads: seeded inputs, one run, checks, digest.

Each workload is the run a user makes with default settings:

* homogenize -- `homogenization_experiment(ExperimentConfig())` and its
  JSON report (`parahom homogenize`); the cone scan of `maximal` dominates.
* sweep      -- `solvability_sweep(ExperimentConfig())` and its JSON report
  (`parahom sweep`); `pde` LU solves dominate, oracle rows give a true error.
* cell       -- `effective_matrix(preset("checker"), 512)` written as
  `parahom cell` writes it; the CG of `cell` dominates and Keller-Dykhne
  duality gives the exact answer 2 I.

The seed moves the inputs only in ways that keep each reference exact:
a phase shift of the laminate by whole eighths of its period, a common
horizontal shift of pole and cube by whole multiples of pi (the period of
the graph row's boundary |sin x|), and a periodic translation of the
checkerboard by whole grid cells.  Seed 0 is the default run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
from parahom import cell, coeffs, harness
from parahom.potential import PotentialConfig

from tracer import Patch

# Relative deviations below the 1e-10 residual tolerance of the cell solves
# are not resolved; ref_rel_err reads them as this floor.
ERROR_FLOOR = 1e-10


def _translated(A, shift):
    """The field X -> A(X - shift)."""
    shift = np.asarray(shift, dtype=float)
    if not shift.any():
        return A
    ev = A.evaluator
    return dataclasses.replace(
        A, evaluator=lambda X: ev(np.asarray(X, dtype=float) - shift))


def _report_sha(paths) -> str:
    with open(next(p for p in paths if p.endswith(".json")), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Homogenize:
    name = "homogenize"
    LAMINATE = np.diag([1.6, 2.5])      # harmonic / arithmetic mean of {1, 4}

    def __init__(self, seed: int, small: bool = False):
        self.cfg = harness.ExperimentConfig(
            eps_list=(0.5, 0.25), resolution=32, nt=32,
            cell_resolution=16) if small else harness.ExperimentConfig()
        self.small = small
        self.field = _translated(coeffs.field_from_json(self.cfg.coeff, self.cfg.d),
                                 [(seed % 8) / 8.0, 0.0])

    def bind(self, patch: Patch):
        patch.set(harness, "field_from_json", lambda spec, d=2: self.field)

    def run(self, outdir: str):
        rep = harness.homogenization_experiment(self.cfg)
        return rep, harness.emit_report(rep, "json", outdir, self.name)

    def results(self, outcome) -> dict:
        rep, paths = outcome
        return {"Abar": rep.Abar,
                "distances": [r["distance"] for r in rep.rows],
                "nt_ratios": [r["nt_ratio"] for r in rep.rows],
                "report_sha256": _report_sha(paths)}

    def checks(self, res: dict) -> dict:
        dev = np.abs(np.asarray(res["Abar"]) - self.LAMINATE) / np.diag(self.LAMINATE).max()
        out = {"laminate_Abar_within_0.5%": bool(dev.max() <= 0.005)}
        if not self.small:
            d = res["distances"][-3:]
            n = res["nt_ratios"]
            out["distances_fall"] = all(a > b for a, b in zip(d, d[1:]))
            out["nt_ratio_band_le_1.25"] = max(n) / min(n) <= 1.25
        return out

    def ref_rel_err(self, res: dict) -> float:
        A = np.asarray(res["Abar"])
        return float(np.linalg.norm(A - self.LAMINATE) / np.linalg.norm(self.LAMINATE))


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, small: bool = False):
        self.small = small
        if small:
            self.cfg = harness.ExperimentConfig(r_list=(0.5,))
            self.pot = PotentialConfig(cells_per_r=6, steps_per_r2=6)
        else:
            self.cfg = harness.ExperimentConfig()
            self.pot = PotentialConfig()
        self.shift = math.pi * (((seed + 3) % 7) - 3)

    def bind(self, patch: Patch):
        """Shift the sweep's pole and cube; the r-sweep keeps its own."""
        s = self.shift
        if not s:
            return
        point, cube = harness.ParabolicPoint, harness.ParabolicCube
        at_scale = harness.local_solvability_at_scale

        def shifted_point(X, t):
            X = np.array(X, dtype=float)
            X[:-1] += s
            return point(X, t)

        def shifted_cube(center_x, *args, **kwargs):
            return cube(np.asarray(center_x, dtype=float) + s, *args, **kwargs)

        def unshifted_at_scale(*args, **kwargs):
            with Patch() as inner:
                inner.set(harness, "ParabolicPoint", point)
                inner.set(harness, "ParabolicCube", cube)
                return at_scale(*args, **kwargs)

        patch.set(harness, "ParabolicPoint", shifted_point)
        patch.set(harness, "ParabolicCube", shifted_cube)
        patch.set(harness, "local_solvability_at_scale", unshifted_at_scale)

    def run(self, outdir: str):
        rep = harness.solvability_sweep(self.cfg, self.pot)
        return rep, harness.emit_report(rep, "json", outdir, self.name)

    def results(self, outcome) -> dict:
        rep, paths = outcome
        return {"rows": [[r["check"], r["params"], r["value"], r["passed"]]
                         for r in rep.rows],
                "report_sha256": _report_sha(paths)}

    def checks(self, res: dict) -> dict:
        out = {"all_rows_pass": all(r[3] for r in res["rows"])}
        if not self.small:
            out["oracle_rows_le_5%"] = all(
                r[2] <= 0.05 for r in res["rows"] if r[0].endswith("-oracle"))
        return out

    def ref_rel_err(self, res: dict) -> float:
        return max(r[2] for r in res["rows"] if r[0].endswith("-oracle"))


class Cell:
    name = "cell"
    EXACT = 2.0 * np.eye(2)     # sqrt(a1 a2) I for the checkerboard {1, 4}

    def __init__(self, seed: int, small: bool = False):
        self.N = 64 if small else 512
        self.field = _translated(coeffs.preset("checker"),
                                 [(seed % self.N) / self.N,
                                  (3 * seed % self.N) / self.N])

    def bind(self, patch: Patch):
        pass

    def run(self, outdir: str):
        em = cell.effective_matrix(self.field, self.N)
        out = {"Abar": [[float(v) for v in row] for row in em.Abar],
               "residuals": [float(r) for r in em.residuals],
               "resolution": em.resolution}
        return out, harness.emit_report(out, "json", outdir, "Abar")

    def results(self, outcome) -> dict:
        out, paths = outcome
        return {"Abar": out["Abar"], "residuals": out["residuals"],
                "report_sha256": _report_sha(paths)}

    def checks(self, res: dict) -> dict:
        A = np.asarray(res["Abar"])
        tol = 1e-10 * np.abs(A).max()
        harm, arith = cell.voigt_reuss_bounds(self.field, self.N)
        return {
            "cg_relres_le_1e-10": max(res["residuals"]) <= 1e-10,
            "Abar_symmetric": bool(np.abs(A - A.T).max() <= tol),
            "Abar_within_voigt_reuss": bool(
                np.linalg.eigvalsh(A - harm).min() >= -tol
                and np.linalg.eigvalsh(arith - A).min() >= -tol),
        }

    def ref_rel_err(self, res: dict) -> float:
        A = np.asarray(res["Abar"])
        return float(np.linalg.norm(A - self.EXACT) / np.linalg.norm(self.EXACT))


WORKLOADS = {w.name: w for w in (Homogenize, Sweep, Cell)}


def digest(payload: dict) -> str:
    """sha256 of the canonical JSON of `payload` (floats round-trip exactly)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
