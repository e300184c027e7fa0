"""Coefficient fields and their structural hypotheses.

A field is a symmetric (d x d) matrix-valued map on R^d together with a
declared ellipticity constant and periodicity.  Nothing here assumes the
declarations are true: they are verified by sampling.  Ellipticity has one
check, `_require_elliptic`, which raises on fields read from configs and on
the values the solver assembles; `check_periodicity` quantifies the
declared periodicity.

Evaluators must be pure and re-entrant; every operation is safe under
concurrent calls.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CoefficientField",
    "AsymmetricFieldError",
    "check_periodicity",
    "scale_field",
    "preset",
    "PRESETS",
    "compile_expression",
    "field_from_json",
    "constant_matrix_field",
]


class AsymmetricFieldError(ValueError):
    """Raised when an evaluator returns a non-symmetric matrix."""

    def __init__(self, point, deviation):
        self.point = np.asarray(point)
        self.deviation = float(deviation)
        super().__init__(
            f"asymmetric coefficient sample at X={self.point.tolist()} "
            f"(|A - A^T| = {self.deviation:.3e})")


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric matrix-valued coefficient map A(X) on R^d.

    period declares the translation symmetry:
      * "none"    -- no periodicity claimed;
      * "axis"    -- A(x, lam + s) = A(x, lam) in the last coordinate;
      * "lattice" -- A(X + s e_i) = A(X) for every coordinate direction;
    with s = period_scale (1 for the unscaled presets).
    """

    evaluator: Callable
    d: int
    lam: float = 1.0
    period: str = "none"
    period_scale: float = 1.0
    label: str = "field"

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError("ellipticity constant must be finite and >= 1, "
                             f"got {self.lam!r}")
        if self.period not in ("none", "axis", "lattice"):
            raise ValueError(f"unknown period kind {self.period!r}")
        if not (math.isfinite(self.period_scale) and self.period_scale > 0):
            raise ValueError("period_scale must be finite and positive, "
                             f"got {self.period_scale!r}")

    def __call__(self, X) -> np.ndarray:
        """Evaluate at points X of shape (..., d); returns (..., d, d)."""
        X = np.asarray(X, dtype=float)
        out = np.asarray(self.evaluator(X), dtype=float)
        return out


def _scalar_field(cfun, d):
    def evaluate(X):
        X = np.asarray(X, dtype=float)
        c = np.asarray(cfun(X), dtype=float)
        out = np.zeros(c.shape + (d, d))
        for i in range(d):
            out[..., i, i] = c
        return out
    return evaluate


def constant_matrix_field(M, label: str = "constant-matrix"
                          ) -> CoefficientField:
    """Constant coefficient field from an explicit symmetric matrix, with
    lam = max(largest eigenvalue, 1 / smallest eigenvalue)."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d) or np.abs(M - M.T).max() > 1e-10 * np.abs(M).max():
        raise ValueError("matrix must be square and symmetric")
    M = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(M)
    lam = float(max(eigs.max(), 1.0 / eigs.min()))

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(M, X.shape[:-1] + (d, d)).copy()

    return CoefficientField(evaluate, d=d, lam=lam, period="lattice",
                            label=label)


def compile_expression(expr: str, d: int) -> Callable:
    """Compile a scalar coordinate expression into a vectorized evaluator.

    Grammar: arithmetic (+ - * / ** and unary -), numeric literals, pi, the
    coordinates x1..xd (aliases: x = x1, lam = xd), and the functions
    sin, cos, abs, min, max (min/max n-ary over their arguments).
    Anything else is rejected, so configs cannot run arbitrary code.
    """
    tree = ast.parse(expr, mode="eval")
    fns = {"sin": np.sin, "cos": np.cos, "abs": np.abs,
           "min": lambda *a: np.minimum.reduce(np.broadcast_arrays(*a)),
           "max": lambda *a: np.maximum.reduce(np.broadcast_arrays(*a))}

    def ev(node, coords):
        if isinstance(node, ast.Expression):
            return ev(node.body, coords)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ValueError(f"bad literal {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return math.pi
            if node.id == "x":
                return coords[..., 0]
            if node.id == "lam":
                return coords[..., -1]
            if node.id.startswith("x") and node.id[1:].isdigit():
                k = int(node.id[1:])
                if not 1 <= k <= coords.shape[-1]:
                    raise ValueError(f"coordinate {node.id} out of range")
                return coords[..., k - 1]
            raise ValueError(f"unknown name {node.id!r}")
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left, coords), ev(node.right, coords)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            if isinstance(node.op, ast.Pow):
                return a ** b
            raise ValueError("unsupported operator")
        if isinstance(node, ast.UnaryOp):
            a = ev(node.operand, coords)
            if isinstance(node.op, ast.USub):
                return -a
            if isinstance(node.op, ast.UAdd):
                return a
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in fns:
                raise ValueError("only sin/cos/abs/min/max calls are allowed")
            args = [ev(a, coords) for a in node.args]
            return fns[node.func.id](*args)
        raise ValueError(f"unsupported syntax {type(node).__name__}")

    # Validate eagerly on a dummy point so config errors surface at parse time.
    ev(tree, np.zeros((1, d)))

    def fn(X):
        X = np.asarray(X, dtype=float)
        val = ev(tree, X)
        return np.broadcast_to(val, X.shape[:-1]).copy() if np.ndim(val) == 0 \
            else val

    return fn


def _laminate_profile(y, a_low, a_high):
    """a_high on the band 1/4 <= frac(y) < 3/4, a_low elsewhere."""
    frac = y - np.floor(y)
    return np.where((frac >= 0.25) & (frac < 0.75), a_high, a_low)


def preset(name: str, d: int = 2, **kwargs) -> CoefficientField:
    """Built-in coefficient fields.

    constant      -- c * I; exercises the trivial case (corrector vanishes).
    laminate      -- a(y1) * I with a in {1, 4} on equal-volume bands
                     (jumps at 1/4 and 3/4); 1-d quadrature oracle available.
    trig          -- (2 + sin(2 pi lam)) * I, smooth, periodic in every
                     coordinate (constant in x), the lam-periodic workhorse.
    trig2d        -- (2 + 0.8 sin(2 pi y1) sin(2 pi y2)) * I, genuinely
                     multi-dimensional smooth lattice-periodic field.
    checker       -- smoothed two-phase checkerboard with values (a1, a2)
                     and smoothing width delta; tends to sqrt(a1 a2) * I.
    """
    if name == "constant":
        c = float(kwargs.get("value", 1.0))
        lam = max(c, 1.0 / c)
        return CoefficientField(_scalar_field(lambda X: np.full(X.shape[:-1], c), d),
                                d=d, lam=lam, period="lattice", label=f"constant({c})")
    if name == "laminate":
        a1 = float(kwargs.get("a_low", 1.0))
        a2 = float(kwargs.get("a_high", 4.0))
        lam = max(a1, a2, 1.0 / min(a1, a2))
        return CoefficientField(
            _scalar_field(lambda X: _laminate_profile(X[..., 0], a1, a2), d),
            d=d, lam=lam, period="lattice", label="laminate")
    if name == "trig":
        return CoefficientField(
            _scalar_field(lambda X: 2.0 + np.sin(2.0 * np.pi * X[..., -1]), d),
            d=d, lam=3.0, period="lattice", label="trig")
    if name == "trig2d":
        def c2(X):
            return 2.0 + 0.8 * np.sin(2 * np.pi * X[..., 0]) \
                * np.sin(2 * np.pi * X[..., -1])
        return CoefficientField(_scalar_field(c2, d), d=d, lam=3.0,
                                period="lattice", label="trig2d")
    if name == "checker":
        a1 = float(kwargs.get("a_low", 1.0))
        a2 = float(kwargs.get("a_high", 4.0))
        delta = float(kwargs.get("delta", 0.25))
        log_mid = 0.5 * (np.log(a1) + np.log(a2))
        log_amp = 0.5 * (np.log(a2) - np.log(a1))

        def cc(X):
            s = np.tanh(np.sin(2 * np.pi * X[..., 0])
                        * np.sin(2 * np.pi * X[..., -1]) / delta)
            return np.exp(log_mid + log_amp * s)

        return CoefficientField(_scalar_field(cc, d), d=d,
                                lam=max(a2, 1.0 / a1), period="lattice",
                                label=f"checker(delta={delta})")
    raise KeyError(f"unknown preset {name!r}; presets are {', '.join(PRESETS)}")


PRESETS = ("constant", "laminate", "trig", "trig2d", "checker")


def field_from_json(spec, d: int = 2) -> CoefficientField:
    """Field from a config dict: a preset name or an expression spec.

    {"preset": "laminate", ...kwargs} or
    {"expr": "2+sin(2*pi*lam)", "lam": 3.0, "period": "axis"} (scalar * I) or
    {"entries": [[...]], "lam": ..., "period": ...} for full matrices.

    This is where coefficients enter from outside the program, so every
    field is checked by `_require_elliptic` at 2000 random points (seed 0)
    of its period cell, or of [-2, 2]^d when it declares no period: an
    asymmetric sample raises AsymmetricFieldError, and eigenvalues outside
    [1/lam, lam] raise ValueError naming their span and the declared lam.
    """
    A = _field_from_spec(spec, d)
    box = (-2.0, 2.0) if A.period == "none" else (0.0, A.period_scale)
    pts = np.random.default_rng(0).uniform(*box, size=(2000, A.d))
    _require_elliptic(A, pts, A(pts), "sampled")
    return A


def _field_from_spec(spec, d: int) -> CoefficientField:
    if isinstance(spec, str):
        return preset(spec, d=d)
    if "preset" in spec:
        kw = {k: v for k, v in spec.items() if k not in ("preset", "d")}
        return preset(spec["preset"], d=int(spec.get("d", d)), **kw)
    d = int(spec.get("d", d))
    lam = float(spec.get("lam", 2.0))
    period = spec.get("period", "none")
    if "expr" in spec:
        fn = compile_expression(spec["expr"], d)
        return CoefficientField(_scalar_field(fn, d), d=d, lam=lam,
                                period=period, label=f"expr({spec['expr']})")
    if "entries" in spec:
        rows = spec["entries"]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("entries must be a d x d table of expressions")
        fns = [[compile_expression(str(e), d) for e in row] for row in rows]

        def mat(X):
            X = np.asarray(X, dtype=float)
            out = np.zeros(X.shape[:-1] + (d, d))
            for i in range(d):
                for j in range(d):
                    out[..., i, j] = fns[i][j](X)
            return out

        return CoefficientField(mat, d=d, lam=lam, period=period,
                                label="expr-matrix")
    raise ValueError("field spec needs 'preset', 'expr' or 'entries'")


def _require_elliptic(A: CoefficientField, pts, vals, where: str) -> None:
    """Check the values vals = A(pts), shape (m, d, d), against A.lam.

    A sample asymmetric beyond 1e-12 of the largest entry (at least 1)
    raises AsymmetricFieldError carrying its point; eigenvalues outside
    [1/lam - 1e-10, lam + 1e-10] raise ValueError naming their span and
    lam, with `where` naming the samples ("sampled", "cell-center", ...).
    A non-finite value raises ValueError first.
    """
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"coefficient field {A.label} has non-finite "
                         f"{where} values")
    asym = np.abs(vals - np.swapaxes(vals, -1, -2)).max(axis=(-1, -2))
    scale = max(1.0, float(np.abs(vals).max()))
    worst = int(np.argmax(asym))
    if asym[worst] > 1e-12 * scale:
        raise AsymmetricFieldError(pts[worst], asym[worst])
    lo, hi = _eig_extremes(0.5 * (vals + np.swapaxes(vals, -1, -2)))
    lo, hi = float(lo.min()), float(hi.max())
    if lo < 1.0 / A.lam - 1e-10 or hi > A.lam + 1e-10:
        raise ValueError(
            f"coefficient field {A.label} is not uniformly elliptic with the "
            f"declared lam = {A.lam:g}: {where} eigenvalues span "
            f"[{lo:.6g}, {hi:.6g}], outside "
            f"[1/lam, lam] = [{1.0 / A.lam:.6g}, {A.lam:g}]")


def check_periodicity(A: CoefficientField) -> float:
    """Max Frobenius deviation |A(X + Z) - A(X)| over the generators Z of
    the declared periodicity (period_scale times e_d for "axis", times each
    e_i for "lattice"), at 256 uniform points of [-2, 2]^d drawn with seed
    0."""
    if A.period == "none":
        raise ValueError("field declares no periodicity")
    gens = np.eye(A.d) * A.period_scale
    if A.period == "axis":
        gens = gens[-1:]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.0, 2.0, size=(256, A.d))
    worst = 0.0
    base = A(pts)
    for z in gens:
        dev = np.linalg.norm(A(pts + z) - base, axis=(-1, -2))
        worst = max(worst, float(dev.max()))
    return worst


def _eig_extremes(M: np.ndarray):
    """(smallest, largest) eigenvalue of each symmetric matrix in the batch
    M, shape (..., d, d): closed form for d <= 2, which avoids eigvalsh on
    huge batches, and eigvalsh otherwise."""
    if M.shape[-1] == 1:
        return M[..., 0, 0], M[..., 0, 0]
    if M.shape[-1] == 2:
        a, b, c = M[..., 0, 0], M[..., 1, 1], M[..., 0, 1]
        half_tr = 0.5 * (a + b)
        disc = np.sqrt(0.25 * (a - b) ** 2 + c * c)
        return half_tr - disc, half_tr + disc
    eigs = np.linalg.eigvalsh(M)
    return eigs[..., 0], eigs[..., -1]


def scale_field(A: CoefficientField, eps: float) -> CoefficientField:
    """Oscillating rescale X -> A(X / eps); period_scale scales with eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps == 1.0:
        return A

    def scaled(X):
        return A.evaluator(np.asarray(X, dtype=float) / eps)

    return CoefficientField(scaled, d=A.d, lam=A.lam, period=A.period,
                            period_scale=A.period_scale * eps,
                            label=f"{A.label}@eps={eps}")
