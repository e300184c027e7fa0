import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parahom.coeffs import preset
from parahom.geometry import (GraphDomain, LipschitzCylinder, ParabolicCube,
                              ParabolicPoint, flatten_pullback,
                              parabolic_norm)


def rho_bisect(X, t):
    """Independent root-finding oracle for the defining equation."""
    x2 = float(np.dot(X, X))
    if x2 == 0.0 and t == 0.0:
        return 0.0
    lo, hi = 1e-14, 1e14
    for _ in range(300):
        mid = np.sqrt(lo * hi)
        if t * t / mid ** 4 + x2 / mid ** 2 > 1.0:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


class TestParabolicNorm:
    def test_spatial_only(self):
        assert parabolic_norm(np.array([3.0, 4.0]), 0.0) == pytest.approx(5.0)

    def test_time_only(self):
        assert parabolic_norm(np.array([0.0]), 4.0) == pytest.approx(2.0)

    def test_mixed_closed_form(self):
        # rho^4 - rho^2 - 2 = 0 factors as (rho^2 - 2)(rho^2 + 1)
        assert parabolic_norm(np.array([1.0]), np.sqrt(2.0)) == \
            pytest.approx(np.sqrt(2.0), rel=1e-14)
        # rho^4 - rho^2 - 1 = 0: ||(1, 1)|| = ((1 + sqrt 5)/2)^(1/2)
        assert parabolic_norm(np.array([1.0]), 1.0) == \
            pytest.approx(np.sqrt((1 + np.sqrt(5)) / 2))

    def test_against_bisection(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            X = rng.normal(size=3) * 10 ** rng.uniform(-2, 2)
            t = rng.normal() * 10 ** rng.uniform(-2, 2)
            assert parabolic_norm(X, t) == pytest.approx(rho_bisect(X, t),
                                                         rel=1e-12)

    def test_scaling_law(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(1000, 2))
        t = rng.normal(size=1000)
        for g in (0.01, 0.5, 3.0, 10.0):
            lhs = parabolic_norm(g * X, g * g * t)
            rhs = g * parabolic_norm(X, t)
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs)

    def test_root_consistency(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1000, 3))
        t = rng.normal(size=1000)
        rho = parabolic_norm(X, t)
        res = t ** 2 / rho ** 4 + np.sum(X * X, axis=1) / rho ** 2
        assert np.abs(res - 1.0).max() <= 1e-12

    def test_zero_iff_origin(self):
        assert parabolic_norm(np.zeros(2), 0.0) == 0.0
        assert parabolic_norm(np.array([1e-30, 0.0]), 0.0) > 0.0


class TestParabolicCube:
    @pytest.mark.parametrize("center_x, center_t, side, match", [
        ([0.0], 0.0, np.nan, "finite"),
        ([0.0], 0.0, np.inf, "finite"),
        ([np.nan], 0.0, 1.0, "finite"),
        ([0.0, -np.inf], 0.0, 1.0, "finite"),
        ([0.0], np.nan, 1.0, "finite"),
        ([0.0], np.inf, 1.0, "finite"),
        ([0.0], 0.0, 0.0, "positive"),
    ])
    def test_bad_input_refused(self, center_x, center_t, side, match):
        with pytest.raises(ValueError, match=match):
            ParabolicCube(np.asarray(center_x), center_t, side)

    def test_coordinates_are_frozen_copies(self):
        # a point or cube that is built and one that is refused both leave
        # the caller's array writable; their own arrays are read-only
        x = np.array([0.5, 1.0])
        cube, point = ParabolicCube(x, 0.0, 1.0), ParabolicPoint(x, 2.0)
        with pytest.raises(ValueError, match="positive"):
            ParabolicCube(x, 0.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            ParabolicPoint(x, np.nan)
        x[0] = 7.0
        assert cube.center_x[0] == point.X[0] == 0.5
        assert not (cube.center_x.flags.writeable or point.X.flags.writeable)


class TestGraphDomain:
    def test_lipschitz_violation_detected(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            GraphDomain(m=0.1, box=((-1.0, 1.0),),
                        phi=lambda x: np.asarray(x)[..., 0])

    def test_json_roundtrip(self):
        dom = GraphDomain.from_json(
            {"phi": {"kind": "closed_form", "expr": "0.25*sin(x1)"},
             "m": 0.25, "box": [[-2.0, 2.0]]})
        assert dom.m == 0.25
        x = np.array([[0.3]])
        assert dom.phi_values(x)[0] == pytest.approx(0.25 * np.sin(0.3))

    def test_zero_phi_table(self):
        dom = GraphDomain(m=0.0, box=((-1.0, 1.0),))
        assert np.all(dom.phi_values(np.array([[0.1], [0.7]])) == 0.0)

    def test_grad_phi_only_inside_the_box(self):
        wavy = GraphDomain(m=0.5, box=((-1.0, 1.0),),
                           phi=lambda x: 0.5 * np.sin(np.asarray(x)[..., 0]))
        x = np.array([-0.5, 0.3, 0.9])
        assert np.allclose(wavy.grad_phi(x)[:, 0], 0.5 * np.cos(x), atol=1e-5)
        with pytest.raises(ValueError, match=r"x1 = 2.*\(\(-1.0, 1.0\),\)"):
            wavy.grad_phi(np.array([0.0, 2.0]))
        flat = GraphDomain(m=0.0, box=((-1.0, 1.0),))
        assert not flat.grad_phi(np.array([2.0, -7.0])).any()

    @pytest.mark.parametrize("n", [1, 2])
    def test_json_table_reproduces_nodes(self, n):
        grids = [np.linspace(-1.0, 1.0, 5)] * n
        mesh = np.meshgrid(*grids, indexing="ij")
        vals = 0.2 * np.abs(sum(mesh)) - 0.1
        dom = GraphDomain.from_json(
            {"m": 0.25, "box": [[-1.0, 1.0]] * n,
             "phi": {"kind": "table", "grids": [g.tolist() for g in grids],
                     "values": vals.tolist()}})
        nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        assert np.allclose(dom.phi_values(nodes), vals.reshape(-1),
                           rtol=0.0, atol=1e-15)


class TestFlattenPullback:
    def test_identity_for_zero_phi(self):
        A = preset("trig", d=2)
        dom = GraphDomain(m=0.0, box=((-1.0, 1.0),))
        At = flatten_pullback(dom, A)
        pts = np.random.default_rng(0).normal(size=(50, 2))
        assert np.array_equal(At(pts), A(pts))   # bitwise

    def test_shear_matrix(self):
        A = preset("constant", d=2)
        dom = GraphDomain(m=0.5, box=((-2.0, 2.0),),
                          phi=lambda x: 0.5 * np.asarray(x)[..., 0])
        At = flatten_pullback(dom, A)
        got = At(np.array([0.0, 0.0]))
        assert np.allclose(got, [[1.0, -0.5], [-0.5, 1.25]], atol=1e-12)

    def test_ellipticity_bound(self):
        # min eigenvalue of the pulled-back field obeys the J J^T bound,
        # verified against a brute-force eigensolve over random samples
        rng = np.random.default_rng(6)
        m = 0.8
        dom = GraphDomain(m=m, box=((-3.0, 3.0),),
                          phi=lambda x: m * np.sin(np.asarray(x)[..., 0]))
        A = preset("constant", d=2)
        At = flatten_pullback(dom, A)
        pts = np.column_stack([rng.uniform(-2.5, 2.5, 400),
                               rng.uniform(0, 2, 400)])
        eigs = np.linalg.eigvalsh(At(pts))
        bound = 1.0 / (1.0 + m * m + m * np.sqrt(2.0 + m * m))
        assert eigs.min() >= bound - 1e-10
        assert At.lam >= eigs.max() - 1e-10

    def test_non_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            dom = GraphDomain(m=0.2, box=((-1.0, 1.0),),
                              phi=lambda x: np.asarray(x)[..., 0] ** 2)
            flatten_pullback(dom, preset("constant", d=2))


class TestCylinder:
    def test_chart_validation(self):
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 2.0)), T=1.0)
        assert dom.r0 == pytest.approx(0.5)

    @pytest.mark.parametrize("box", [((0.0, np.inf), (0.0, 1.0)),
                                     ((0.0, 1.0), (np.nan, 1.0))])
    def test_nonfinite_base_box_rejected(self, box):
        with pytest.raises(ValueError, match="finite"):
            LipschitzCylinder(base_box=box, T=1.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_nonfinite_T_rejected(self, T):
        with pytest.raises(ValueError, match="final time T"):
            LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=T)
        with pytest.raises(ValueError, match="final time T"):
            LipschitzCylinder.from_json({"base_box": [[0, 1], [0, 1]],
                                         "T": T})

    def test_json(self):
        dom = LipschitzCylinder.from_json(
            {"base_box": [[0, 1], [0, 1]], "T": 2.0})
        assert dom.T == 2.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 10.0), st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
       st.floats(-30.0, 30.0))
def test_scaling_property(gamma, x1, x2, t):
    X = np.array([x1, x2])
    lhs = float(parabolic_norm(gamma * X, gamma * gamma * t))
    rhs = gamma * float(parabolic_norm(X, t))
    assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-30)


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-400, 400))
def test_root_consistency_property(x1, x2, t):
    X = np.array([x1, x2])
    rho = float(parabolic_norm(X, t))
    if rho > 1e-60:     # below that the residual itself underflows
        assert abs(t * t / rho ** 4 + float(X @ X) / rho ** 2 - 1.0) <= 1e-12
