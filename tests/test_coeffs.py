import dataclasses

import numpy as np
import pytest

from parahom.coeffs import (AsymmetricFieldError, CoefficientField, PRESETS,
                            _eig_extremes, _require_elliptic,
                            check_periodicity, compile_expression,
                            constant_matrix_field, field_from_json, preset,
                            scale_field)


def scalar_field(cfun, d=2, **kw):
    def ev(X):
        X = np.asarray(X, dtype=float)
        c = np.asarray(cfun(X), dtype=float)
        out = np.zeros(c.shape + (d, d))
        for i in range(d):
            out[..., i, i] = c
        return out
    return CoefficientField(ev, d=d, **kw)


PTS = np.random.default_rng(0).uniform(0.0, 1.0, size=(200, 2))


def require_elliptic(A):
    _require_elliptic(A, PTS, A(PTS), "sampled")


class TestEllipticity:
    def test_identity(self):
        require_elliptic(preset("constant", d=2))
        # lam = 1 leaves no slack: 1.01 I declared with lam = 1 is refused
        A = CoefficientField(lambda X: 1.01 * preset("constant", d=2)(X), d=2,
                             lam=1.0)
        with pytest.raises(ValueError, match=r"span \[1\.01, 1\.01\]"):
            require_elliptic(A)

    def test_diag_within_declared(self):
        A = constant_matrix_field(np.diag([0.5, 3.0]))
        assert A.lam == 3.0
        require_elliptic(A)

    def test_diag_exceeding_declared(self):
        A = dataclasses.replace(constant_matrix_field(np.diag([0.5, 3.0])),
                                lam=2.0)
        with pytest.raises(ValueError, match=r"lam = 2: sampled eigenvalues "
                           r"span \[0\.5, 3\], outside \[1/lam, lam\] = "
                           r"\[0\.5, 2\]"):
            require_elliptic(A)

    def test_asymmetric_hard_error(self):
        def ev(X):
            X = np.asarray(X)
            out = np.zeros(X.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            out[..., 0, 1] = 0.5
            return out
        A = CoefficientField(ev, d=2, lam=2.0)
        with pytest.raises(AsymmetricFieldError) as ei:
            require_elliptic(A)
        assert ei.value.point.shape == (2,)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_eig_extremes_match_eigvalsh(self, d):
        G = np.random.default_rng(d).normal(size=(500, d, d))
        M = G + np.swapaxes(G, -1, -2)
        lo, hi = _eig_extremes(M)
        eigs = np.linalg.eigvalsh(M)
        scale = np.abs(eigs).max(axis=-1)
        assert np.all(np.abs(lo - eigs[:, 0]) <= 1e-14 * scale)
        assert np.all(np.abs(hi - eigs[:, -1]) <= 1e-14 * scale)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eig, refused", [
        (0.5 - 2e-10, True), (0.5 - 0.5e-10, False),
        (2.0 + 2e-10, True), (2.0 + 0.5e-10, False)])
    def test_band_margin(self, d, eig, refused):
        # one eigenvalue just outside [1/lam, lam] = [0.5, 2], the others
        # inside, in a rotated frame so that every entry is nonzero
        Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(d, d)))
        M = Q @ np.diag([eig] + [1.0] * (d - 1)) @ Q.T
        M = 0.5 * (M + M.T)
        A = CoefficientField(
            lambda X: np.broadcast_to(M, np.shape(X)[:-1] + (d, d)).copy(),
            d=d, lam=2.0)
        pts = PTS[:, :1].repeat(d, axis=1)
        if refused:
            with pytest.raises(ValueError, match="not uniformly elliptic"):
                _require_elliptic(A, pts, A(pts), "sampled")
        else:
            _require_elliptic(A, pts, A(pts), "sampled")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refused(self, d, bad):
        # eigvalsh answers NaN input with zeros, NaN or LinAlgError by
        # dimension; the closed form would let NaN through the band check
        def ev(X):
            out = preset("constant", d=d)(X)
            out[..., -1, -1] = bad
            return out
        A = CoefficientField(ev, d=d, lam=2.0)
        pts = PTS[:, :1].repeat(d, axis=1)
        with pytest.raises(ValueError, match="non-finite sampled values"):
            _require_elliptic(A, pts, A(pts), "sampled")

    def test_all_presets_pass(self):
        for name in PRESETS:
            field_from_json(name)


class TestPeriodicity:
    def test_constant(self):
        assert check_periodicity(preset("constant", d=2)) == 0.0

    def test_exact_axis_period(self):
        A = scalar_field(lambda X: 2.0 + np.sin(2 * np.pi * X[..., -1]),
                         lam=3.0, period="axis")
        assert check_periodicity(A) <= 1e-12

    def test_wrong_period_detected(self):
        A = scalar_field(lambda X: 2.0 + np.sin(3.0 * X[..., -1]),
                         lam=3.0, period="axis")
        assert check_periodicity(A) > 0.01

    def test_requires_declared_period(self):
        A = scalar_field(lambda X: np.ones(X.shape[:-1]), lam=1.0)
        with pytest.raises(ValueError):
            check_periodicity(A)


class TestDeclarations:
    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lam_refused(self, lam):
        # eigenvalue 50 passed the band test of a NaN or infinite lam
        with pytest.raises(ValueError, match="ellipticity constant"):
            field_from_json({"expr": "50", "lam": lam})

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_period_scale_refused(self, scale):
        with pytest.raises(ValueError, match="period_scale"):
            CoefficientField(preset("trig").evaluator, d=2, lam=3.0,
                             period="lattice", period_scale=scale)


class TestScaleField:
    def test_identity(self):
        A = preset("trig", d=2)
        assert scale_field(A, 1.0) is A

    def test_definition_pointwise(self):
        A = preset("trig2d", d=2)
        B = scale_field(A, 0.25)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        assert np.array_equal(B(0.25 * X), A(X))

    def test_period_metadata_rescaled(self):
        A = preset("laminate", d=2)
        B = scale_field(A, 0.25)
        assert B.period_scale == pytest.approx(0.25)
        assert check_periodicity(B) <= 1e-12

    def test_semigroup(self):
        A = preset("trig2d", d=2)
        B1 = scale_field(scale_field(A, 0.5), 0.4)
        B2 = scale_field(A, 0.2)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        assert np.abs(B1(X) - B2(X)).max() <= 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_field(preset("trig", d=2), 0.0)


class TestExpressionGrammar:
    def test_basic(self):
        fn = compile_expression("2 + sin(2*pi*lam)", 2)
        X = np.array([[0.0, 0.25]])
        assert fn(X)[0] == pytest.approx(3.0)

    def test_min_max_abs(self):
        fn = compile_expression("max(abs(x1), min(x2, 0.5))", 2)
        assert fn(np.array([[-2.0, 3.0]]))[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("expr, numpy", [
        ("x1 - x2", lambda x1, x2: x1 - x2),
        ("x1 / (2 + x2)", lambda x1, x2: x1 / (2.0 + x2)),
        ("x2 ** 3", lambda x1, x2: x2 ** 3.0),
        ("-x1 + +x2", lambda x1, x2: -x1 + x2),
        ("x * lam", lambda x1, x2: x1 * x2)],
        ids=["sub", "div", "pow", "unary", "x-alias"])
    def test_operators_match_numpy(self, expr, numpy):
        X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2))
        assert np.array_equal(compile_expression(expr, 2)(X),
                              numpy(X[:, 0], X[:, 1]))

    @pytest.mark.parametrize("expr, match", [
        ("x1 + 'a'", "bad literal 'a'"),
        ("x9", "coordinate x9 out of range"),
        ("y + 1", "unknown name 'y'"),
        ("x1 % 2", "unsupported operator"),
        ("~x1", "unsupported unary operator"),
        ("x1 if 1 else 2", "unsupported syntax IfExp")],
        ids=["literal", "x9", "name", "mod", "invert", "ifexp"])
    def test_rejections(self, expr, match):
        with pytest.raises(ValueError, match=match):
            compile_expression(expr, 2)

    def test_rejects_calls(self):
        with pytest.raises(ValueError):
            compile_expression("__import__('os')", 2)
        with pytest.raises(ValueError):
            compile_expression("exp(x1)", 2)

    def test_field_from_json_expr(self):
        A = field_from_json({"expr": "2+sin(2*pi*lam)", "lam": 3.0,
                             "period": "axis"})
        assert check_periodicity(A) <= 1e-12
        require_elliptic(A)

    def test_field_from_json_matrix(self):
        A = field_from_json({"entries": [["2", "0.5"], ["0.5", "2"]],
                             "lam": 3.0})
        M = A(np.zeros(2))
        assert np.allclose(M, [[2.0, 0.5], [0.5, 2.0]])

    def test_field_from_json_preset_with_arguments(self):
        A = field_from_json({"preset": "laminate", "a_high": 9.0, "d": 3})
        assert (A.d, A.lam) == (3, 9.0)
        M = A(np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.5]]))
        assert np.array_equal(M, [9.0 * np.eye(3), np.eye(3)])

    def test_preset_by_name(self):
        assert field_from_json("laminate").label == "laminate"

    def test_unknown_preset_lists_the_presets(self):
        with pytest.raises(KeyError, match=", ".join(PRESETS)):
            field_from_json("laminat")
