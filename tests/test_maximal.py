import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parahom.coeffs import preset, scale_field
from parahom.geometry import GraphDomain, LipschitzCylinder
from parahom.maximal import (BoundaryField, boundary_data_norm,
                             lp_boundary_norm, nontangential_max)
from parahom.pde import (BoundaryData, ScalarField, SpaceTimeGrid,
                         graded_axis, halfspace, lateral_faces,
                         solve_dirichlet)

HALF = GraphDomain(m=0.0, box=((-4.0, 4.0),))
BOTTOM = (1, 0)             # the one lateral face of a graph domain, d = 2


def ramp(t, tau=0.15):
    return 1.0 - np.exp(-(max(t, 0.0) / tau) ** 2)


def bump(width=0.5, center=0.0, amp=1.0):
    def ev(pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return amp * ramp(t) * np.exp(-(pts[:, 0] - center) ** 2 / width ** 2)
    return BoundaryData(ev)


def grid(nx=96, nlam=24, nt=64, height=2.0, t1=1.0):
    return halfspace(-4.0, 4.0, height, 0.0, t1, (nx, nlam), nt)


def synthetic(g, fn):
    pts = g.centers().reshape(g.shape + (2,))
    vals = np.broadcast_to(fn(pts), (g.nt + 1,) + g.shape).copy()
    return ScalarField(g, vals)


class TestNontangentialMax:
    def test_constant_field(self):
        u = synthetic(grid(), lambda X: np.full(X.shape[:-1], -0.7))
        N = nontangential_max(u, 1.0, HALF)[BOTTOM]
        assert np.all(np.abs(N.values - 0.7) <= 1e-14)

    def test_linear_height_field(self):
        g = grid()
        u = synthetic(g, lambda X: X[..., 1])
        N = nontangential_max(u, 1.0, HALF)[BOTTOM]
        top = g.axis_centers(1)[-1]
        assert np.all(np.abs(N.values - top) <= 1e-14)

    def test_monotone_in_eta(self):
        u = solve_dirichlet(preset("constant", d=2), HALF, bump(), grid())
        N1 = nontangential_max(u, 0.7, HALF)[BOTTOM]
        N2 = nontangential_max(u, 2.1, HALF)[BOTTOM]
        assert np.all(N2.values >= N1.values - 1e-15)

    def test_subadditive(self):
        g = grid(nx=48, nlam=16, nt=32)
        A = preset("constant", d=2)
        u = solve_dirichlet(A, HALF, bump(), g)
        v = solve_dirichlet(A, HALF, bump(center=1.0, width=0.3), g)
        w = ScalarField(g, u.values + v.values)
        Nu = nontangential_max(u, 1.0, HALF)[BOTTOM]
        Nv = nontangential_max(v, 1.0, HALF)[BOTTOM]
        Nw = nontangential_max(w, 1.0, HALF)[BOTTOM]
        assert np.all(Nw.values <= Nu.values + Nv.values + 1e-14)

    def test_dominates_first_layer_trace(self):
        u = solve_dirichlet(preset("trig", d=2), HALF, bump(), grid())
        N = nontangential_max(u, 1.0, HALF)[BOTTOM]
        assert np.all(N.values >= np.abs(u.values[:, :, 0]) - 1e-15)

    def test_dominates_vertical_max(self):
        u = solve_dirichlet(preset("constant", d=2), HALF, bump(), grid())
        # sup of |u| over the vertical segment 0 < lam < 1
        below = u.grid.axis_centers(1) < 1.0
        M = np.abs(u.values[..., below]).max(axis=-1)
        # a cone wide enough to contain that segment
        N = nontangential_max(u, 50.0, HALF)[BOTTOM]
        assert np.all(N.values >= M - 1e-14)

    def test_eta_must_exceed_lipschitz(self):
        dom = GraphDomain(m=0.5, box=((-4.0, 4.0),),
                          phi=lambda x: 0.5 * np.sin(np.asarray(x)[..., 0]))
        u = solve_dirichlet(preset("constant", d=2), dom, bump(), grid())
        with pytest.raises(ValueError, match="exceed"):
            nontangential_max(u, 0.4, dom)

    def test_eta_must_be_finite(self):
        u = synthetic(grid(nx=8, nlam=4, nt=4), lambda X: X[..., 0])
        for eta in (np.inf, np.nan):
            with pytest.raises(ValueError, match="eta must be finite"):
                nontangential_max(u, eta, HALF)

    def test_graded_grid_refused(self):
        f = graded_axis([(-1.0, 1.0, 0.25)], -4.0, 4.0, 4.0)
        g = SpaceTimeGrid((f, np.linspace(0.0, 2.0, 9)), 0.0, 1.0, 4)
        u = ScalarField(g, np.ones((g.nt + 1,) + g.shape))
        with pytest.raises(ValueError, match="graded"):
            nontangential_max(u, 1.0, HALF)

    def test_cylinder_cones_need_a_positive_opening(self):
        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (8, 8), 0.0, 0.5, 4)
        u = ScalarField(g, np.ones((g.nt + 1,) + g.shape))
        for eta in (0.0, -1.0):
            with pytest.raises(ValueError, match="exceed"):
                nontangential_max(u, eta, UNIT_SQUARE)

    def test_cone_below_first_layer_raises(self):
        # r0 = 0.05, and the faces normal to x1 have their first layer at
        # depth 0.0625: no cone reaches a cell there
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 0.1)), T=0.5)
        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 0.1), (8, 8), 0.0, 0.5, 4)
        u = ScalarField(g, np.ones((g.nt + 1,) + g.shape))
        with pytest.raises(ValueError, match=r"face \(0, 0\).*r0 = 0.05"
                           r".*depth 0.0625"):
            nontangential_max(u, 1.0, dom)

    @pytest.mark.parametrize("d", [2, 3])
    def test_graph_has_one_face(self, d):
        dom = GraphDomain(m=0.5, box=((-4.0, 4.0),) * (d - 1),
                          phi=lambda x: 0.5 * np.sin(np.asarray(x)[..., 0]))
        g = halfspace([-2.0] * (d - 1), [2.0] * (d - 1), 1.0, 0.0, 0.5,
                      (8,) * d, 4)
        u = ScalarField(g, np.ones((g.nt + 1,) + g.shape))
        assert list(nontangential_max(u, 1.0, dom)) == [(d - 1, 0)]

    def test_norm_ratio_stable_under_refinement(self):
        A = preset("constant", d=2)
        vals = []
        for g in (grid(nx=64, nlam=16, nt=48), grid(nx=128, nlam=32, nt=96)):
            u = solve_dirichlet(A, HALF, bump(), g)
            vals.append(lp_boundary_norm(nontangential_max(u, 1.0, HALF),
                                         2.0))
        assert abs(vals[0] - vals[1]) <= 0.1 * max(vals)


class TestLpNorm:
    def test_indicator_patch(self):
        g = grid(nx=64, nlam=8, nt=10, t1=0.5)
        vals = np.zeros((g.nt + 1, 64))
        xs = g.axis_centers(0)
        patch = np.abs(xs) < 1.0
        vals[:, patch] = 1.0
        bf = BoundaryField(vals, np.full(64, g.h[0]), g.dt)
        S = patch.sum() * g.h[0] * (g.nt + 1) * g.dt
        for p in (1.5, 2.0, 4.0):
            assert lp_boundary_norm({BOTTOM: bf}, p) == \
                pytest.approx(S ** (1 / p))

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(11, 32))
        bf = BoundaryField(vals, np.full(32, 0.1), 0.05)
        bf3 = BoundaryField(3.0 * vals, np.full(32, 0.1), 0.05)
        assert lp_boundary_norm({BOTTOM: bf3}, 2.5) == pytest.approx(
            3.0 * lp_boundary_norm({BOTTOM: bf}, 2.5), rel=1e-12)

    def test_holder_consistency(self):
        # ||g||_p <= sigma(supp)^{1/p - 1/q} ||g||_q for p < q
        rng = np.random.default_rng(1)
        for _ in range(10):
            vals = np.zeros((8, 16))
            m = rng.integers(2, 16)
            vals[:, :m] = rng.normal(size=(8, m))
            bf = BoundaryField(vals, np.full(16, 0.25), 0.125)
            supp = m * 0.25 * 8 * 0.125
            p, q = 1.5, 3.0
            lhs = lp_boundary_norm({BOTTOM: bf}, p)
            rhs = supp ** (1 / p - 1 / q) * lp_boundary_norm({BOTTOM: bf}, q)
            assert lhs <= rhs * (1 + 1e-12)

    def test_p_range(self):
        bf = BoundaryField(np.ones((2, 4)), np.ones(4), 0.1)
        with pytest.raises(ValueError):
            lp_boundary_norm({BOTTOM: bf}, 1.0)
        with pytest.raises(ValueError):
            lp_boundary_norm({BOTTOM: bf}, np.inf)


def solvability_ratio(A, dom, f, g):
    """||N(u_f)||_2 / ||f||_2 with cones of opening 1."""
    u = solve_dirichlet(A, dom, f, g)
    return (lp_boundary_norm(nontangential_max(u, 1.0, dom), 2.0)
            / boundary_data_norm(f, dom, g, 2.0))


class TestSolvabilityConstant:
    def test_ramp_ratio_near_one(self):
        # constant-in-x data: N(u) approaches |f| at the vertex limit
        f = BoundaryData(lambda pts, t: np.full(len(np.atleast_2d(pts)),
                                                ramp(t)))
        g = halfspace(-6.0, 6.0, 2.0, 0.0, 2.0, (96, 24), 96)
        dom = GraphDomain(m=0.0, box=((-6.0, 6.0),))
        assert solvability_ratio(preset("constant", d=2), dom, f, g) >= 0.9

    def test_family_and_translation_stability(self):
        A = preset("constant", d=2)
        g = grid(nx=96, nlam=24, nt=64)
        r0 = solvability_ratio(A, HALF, bump(), g)
        r1 = solvability_ratio(A, HALF, bump(center=0.8), g)   # translated
        assert abs(r0 - r1) <= 0.15 * r0

    def test_eps_sweep_uniformity(self):
        # the measured constant stays in a 25% band across oscillation scales
        A = preset("trig", d=2)
        g = grid(nx=128, nlam=32, nt=64)
        ratios = [solvability_ratio(scale_field(A, eps), HALF, bump(), g)
                  for eps in (0.5, 0.25, 0.125)]
        assert max(ratios) / min(ratios) <= 1.25


UNIT_SQUARE = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=0.5)


class TestDataNorm:
    def test_constant_data_on_cylinder(self):
        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (24, 24),
                                  0.0, 0.5, 24)
        f = BoundaryData(lambda pts, t: np.full(len(pts), ramp(t)))
        for p in (1.5, 2.0, 3.0):
            exact = (4 * g.dt * sum(ramp(t) ** p for t in g.times())) ** (1 / p)
            assert boundary_data_norm(f, UNIT_SQUARE, g, p) == \
                pytest.approx(exact, rel=1e-12)

    def test_graph_surface_measure(self):
        slope = GraphDomain(m=0.5, box=((-4.0, 4.0),),
                            phi=lambda x: 0.5 * np.asarray(x)[..., 0])
        g = grid()
        for p in (1.5, 2.0, 3.0):
            flat = boundary_data_norm(bump(), HALF, g, p)
            assert boundary_data_norm(bump(), slope, g, p) == pytest.approx(
                1.25 ** (1 / (2 * p)) * flat, rel=1e-12)


class TestCylinderCones:
    def test_cones_stop_at_chart_height(self):
        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (24, 24),
                                  0.0, 0.5, 24)
        vals = np.zeros((g.nt + 1,) + g.shape)
        vals[:, :, 0] = 1.0                 # bottom cell layer, face (1, 0)
        fields = nontangential_max(ScalarField(g, vals), 1.0, UNIT_SQUARE)
        mid = g.shape[1] // 2
        assert np.all(fields[(1, 1)].values == 0.0)
        assert np.all(fields[(0, 0)].values[:, mid] == 0.0)
        assert np.all(fields[(0, 1)].values[:, mid] == 0.0)
        assert np.all(fields[(1, 0)].values == 1.0)

    def test_per_face_fields(self):
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=0.5)
        from parahom.pde import SpaceTimeGrid

        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (24, 24),
                                  0.0, 0.5, 24)

        def ev(pts, t):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return ramp(t) * np.exp(-np.sum((pts - 0.5) ** 2, axis=1) / 0.05)
        u = solve_dirichlet(preset("constant", d=2), dom, BoundaryData(ev), g)
        fields = nontangential_max(u, 1.0, dom)
        assert set(fields) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        total = lp_boundary_norm(fields, 2.0)
        assert total > 0
        faces = [lp_boundary_norm({k: bf}, 2.0) for k, bf in fields.items()]
        assert total == pytest.approx(np.sqrt(np.sum(np.square(faces))),
                                      rel=1e-14)
        for bf in fields.values():
            assert bf.values.max() <= u.values.max() + 1e-14

    def test_face_values_are_c_ordered_time_first(self):
        # lp_boundary_norm sums in memory order, so every face's N(u) is a
        # C-ordered (nt+1, *tangential) array, on every normal axis
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.3),
                                          (0.0, 0.9)), T=0.5)
        g = SpaceTimeGrid.uniform((0.0, 0.0, 0.0), (1.0, 1.3, 0.9),
                                  (6, 5, 4), 0.0, 0.5, 8)
        u = ScalarField(g, np.random.default_rng(7).normal(
            size=(g.nt + 1,) + g.shape))
        fields = nontangential_max(u, 1.0, dom)
        for (axis, side), bf in fields.items():
            tang = tuple(n for k, n in enumerate(g.shape) if k != axis)
            assert bf.values.shape == (g.nt + 1,) + tang
            assert bf.values.flags.c_contiguous, (axis, side)

    def test_scan_copies_one_layer_at_a_time(self):
        # a face's cones reach 32 of the 64 layers, half of u; a scan that
        # copies one layer at a time holds a few (64, 65) layers, 0.16 of u
        import tracemalloc

        from parahom.harness import data_from_json, field_from_json

        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (64, 64),
                                  0.0, 1.0, 64)
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=1.0)
        A = scale_field(field_from_json("laminate", d=2), 0.25)
        u = solve_dirichlet(A, dom, data_from_json(None), g)
        nontangential_max(u, 1.0, dom)      # warm: imports, first buffers
        tracemalloc.start()
        try:
            nontangential_max(u, 1.0, dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * u.values.nbytes


def test_one_filter_call_per_dilation(monkeypatch):
    # the recursion dilates by each layer's growth of the box: at most one
    # maximum_filter1d call per axis and layer, and radii on each axis that
    # add up to no more than the deepest box's on every face (n - 1 cells,
    # nt levels)
    from parahom import maximal

    g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (64, 64), 0.0, 1.0, 64)
    u = ScalarField(g, np.random.default_rng(4).normal(
        size=(g.nt + 1,) + g.shape))
    calls = []                          # (axis, radius) of each call
    real = maximal.maximum_filter1d

    def counted(a, size, axis, **kwargs):
        calls.append((axis % a.ndim, size // 2))
        return real(a, size=size, axis=axis, **kwargs)

    monkeypatch.setattr(maximal, "maximum_filter1d", counted)
    dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=1.0)
    faces = nontangential_max(u, 1.0, dom)
    nlayers = int(np.sum(g.axis_centers(0) < dom.r0))
    assert 0 < len(calls) <= len(faces) * g.d * nlayers
    for axis, cap in enumerate((63, 64)):
        assert sum(r for a, r in calls if a == axis) <= len(faces) * cap


@pytest.mark.parametrize("shape", [(17, 9), (6, 5, 4)], ids=["2d", "3d"])
def test_dilation_passes_equal_the_running_max(shape):
    # r clamped passes of radius 1 are scipy's running max over 2r + 1
    # cells with the ends repeated, bit for bit, also for r past the ends
    from scipy.ndimage import maximum_filter1d as reference

    from parahom import maximal

    a = np.random.default_rng(8).normal(size=shape)
    before = a.copy()
    for axis in range(a.ndim):
        for r in range(9):
            out = np.empty_like(a)
            assert maximal.maximum_filter1d(
                a, size=2 * r + 1, axis=axis, mode="nearest",
                output=out) is out
            assert np.array_equal(out, reference(
                a, size=2 * r + 1, axis=axis, mode="nearest"))
    assert np.array_equal(a, before)
    with pytest.raises(ValueError, match="nearest"):
        maximal.maximum_filter1d(a, size=3, axis=0, mode="reflect",
                                 output=out)


def brute_max(u, face, cut, admits):
    """N(u) on one face by brute force over every vertex, layer, tangential
    offset and time: (x + dx, s) on the layer at depth lam = (l + 1/2) h
    counts for the vertex (x, t) where admits(dx, |s - t|, lam) holds,
    broadcast over (t, s, cell, axis).  Cones stop below depth `cut`
    (None: the whole depth)."""
    g = u.grid
    axis, side = face.key
    v = np.moveaxis(np.abs(u.values), 1 + axis, 1)     # (nt+1, depth, *tang)
    if side == 1:
        v = v[:, ::-1]
    h = list(g.h)
    h_depth = h.pop(axis)
    tang = v.shape[2:]
    cells = np.indices(tang).reshape(len(tang), -1).T
    vals = v.reshape(v.shape[:2] + (-1,))
    lag = np.abs(np.subtract.outer(np.arange(g.nt + 1),
                                   np.arange(g.nt + 1))) * g.dt
    out = np.zeros((g.nt + 1, len(cells)))
    for l in range(v.shape[1]):
        lam = (l + 0.5) * h_depth
        if cut is not None and lam >= cut:
            break
        for i, x in enumerate(cells):
            adm = admits(((cells - x) * h)[None, None], lag[:, :, None], lam)
            cone = np.where(adm, vals[None, :, l, :], 0.0)
            out[:, i] = np.maximum(out[:, i], cone.max(axis=(1, 2)))
    return out.reshape((g.nt + 1,) + tang)


def cone_oracle(u, eta, face, cut):
    """N(u) by `brute_max` with the box admission rule written out:
    rho = eta lam, |dx_i| < rho on every tangential axis and
    |s - t| <= rho^2."""
    def admits(dx, lag, lam):
        rho = eta * lam
        return np.all(np.abs(dx) < rho, axis=-1) & (lag <= rho * rho)
    return brute_max(u, face, cut, admits)


def ellipse_oracle(u, eta, face, cut):
    """N(u) by `brute_max` over the ellipse sections of the root parabolic
    norm: rho = eta lam, |dx|^2 < rho^2 and
    |s - t| <= rho sqrt(rho^2 - |dx|^2)."""
    def admits(dx, lag, lam):
        rho = eta * lam
        dx2 = np.sum(dx ** 2, axis=-1)
        return (dx2 < rho * rho) & (
            lag <= rho * np.sqrt(np.maximum(rho * rho - dx2, 0.0)))
    return brute_max(u, face, cut, admits)


@st.composite
def random_faces(draw):
    """(u, dom, cut): a random field on a random uniform grid, d = 2 or 3,
    and its domain.  dt is drawn against the square of a tangential
    spacing, so time reaches grow by many levels per layer as well as by
    none.  cut None: a graph face through the whole depth; otherwise every
    face of a cylinder with r0 = cut above all first layers."""
    d = draw(st.sampled_from([2, 3]))
    shape = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    lengths = draw(st.lists(st.sampled_from([0.3, 0.5, 1.0, 1.3]),
                            min_size=d, max_size=d))
    nt = draw(st.integers(1, 24))
    t1 = nt * draw(st.floats(0.02, 2.0)) * (lengths[0] / shape[0]) ** 2
    g = SpaceTimeGrid.uniform((0.0,) * d, tuple(lengths), tuple(shape),
                              0.0, t1, nt)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    u = ScalarField(g, rng.normal(size=(g.nt + 1,) + g.shape))
    cut = draw(st.one_of(st.none(), st.floats(1.01, 6.0)),
               label="cut / max first-layer depth")
    if cut is None:
        return u, GraphDomain(m=0.0, box=((-1.0, 2.0),) * (d - 1)), None
    cut *= 0.5 * max(g.h)
    return u, LipschitzCylinder(base_box=((0.0, 2 * cut),) * d, T=t1), cut


class TestConeOracle:
    """The cone scan against cone_oracle, exactly: a max has no roundoff."""

    @staticmethod
    def field(g, seed):
        rng = np.random.default_rng(seed)
        return ScalarField(g, rng.normal(size=(g.nt + 1,) + g.shape))

    @pytest.mark.parametrize("eta", [0.7, 1.0, 2.5, 9.0, 1e300, 5e-324])
    @pytest.mark.parametrize("cut", [None, 0.33, 0.04])
    def test_graph_face(self, eta, cut, t1=2.0, nt=20):
        # cut None: the graph face, cones reach the whole depth; otherwise
        # the same face as the bottom (1, 0) of a cylinder with r0 = cut,
        # which must lie above the first layer (depth 0.05).  eta = 1e300
        # overflows rho^2: every cone covers the whole grid.  eta = 5e-324
        # gives rho = 0, an empty cone, on every layer but the deepest.
        g = halfspace(-2.0, 2.0, 0.6, 0.0, t1, (12, 6), nt)
        u = self.field(g, 0)
        if cut is None:
            face, = lateral_faces(g, HALF)
            N = nontangential_max(u, eta, HALF)[face.key]
        else:
            dom = LipschitzCylinder(base_box=((-2.0, 2.0), (0.0, 2 * cut)),
                                    T=2.0)
            if cut < 0.5 * g.h[1]:
                with pytest.raises(ValueError, match="first layer"):
                    nontangential_max(u, eta, dom)
                return
            face, = (f for f in lateral_faces(g, dom) if f.key == (1, 0))
            N = nontangential_max(u, eta, dom)[face.key]
        assert np.array_equal(N.values, cone_oracle(u, eta, face, cut))
        if eta == 9.0 and cut is None and nt == 20:   # the n - 1 cap
            assert eta * 5.5 * g.h[1] > 11 * g.h[0]

    @pytest.mark.parametrize("eta", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("cut", [None, 0.33])
    def test_graph_face_fine_time_steps(self, eta, cut):
        # dt = 0.01 is small against the layer spacing squared, 0.01: the
        # time reach grows by several levels from one layer to the next,
        # and deep windows span more than half of the 41 time levels
        self.test_graph_face(eta, cut, t1=0.4, nt=40)
        dt = 0.01
        w4, w5 = ((0.7 * lam) ** 2 // dt for lam in (0.45, 0.55))   # eta 0.7
        assert w5 - w4 > 1
        assert 0.55 ** 2 / dt > 40 / 2              # eta 1.0, layer 5

    def test_cone_boundary_on_the_grid(self):
        # binary-exact spacings put cells on |dx| = rho (outside the cone)
        # and time levels on |s - t| = rho^2 (inside it): on the first
        # layer rho = 1/16 = h and rho^2 = 1/256 = dt
        g = halfspace(-1.0, 1.0, 0.5, 0.0, 0.0625, (32, 4), 16)
        rho = 1.0 * (0.5 * g.h[1])
        assert 1 * g.h[0] == rho and 1 * g.dt == rho * rho
        u = self.field(g, 3)
        face, = lateral_faces(g, HALF)
        vals = cone_oracle(u, 1.0, face, None)
        assert np.array_equal(nontangential_max(u, 1.0, HALF)[face.key].values,
                              vals)

    @pytest.mark.parametrize("eta", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("t1", [0.5, 0.02])
    def test_cylinder_faces(self, eta, t1, shape=(6, 5, 4)):
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.3),
                                          (0.0, 0.9)), T=t1)
        g = SpaceTimeGrid.uniform((0.0, 0.0, 0.0), (1.0, 1.3, 0.9), shape,
                                  0.0, t1, 8)
        u = self.field(g, 1)
        fields = nontangential_max(u, eta, dom)
        faces = lateral_faces(g, dom)
        assert sorted(fields) == sorted(f.key for f in faces)
        for face in faces:
            vals = cone_oracle(u, eta, face, dom.r0)
            assert np.array_equal(fields[face.key].values, vals), face.key
        if t1 == 0.02 and shape == (6, 5, 4):   # windows reach the nt cap
            assert (eta * 1.5 * 1.3 / 5) ** 2 > t1

    @pytest.mark.parametrize("eta", [0.7, 2.5])
    @pytest.mark.parametrize("t1", [0.5, 0.02])
    def test_cylinder_faces_unequal_spacings(self, eta, t1):
        # tangential spacings 1/3, 0.1 and 0.18, a different pair per face
        self.test_cylinder_faces(eta, t1, shape=(3, 13, 5))

    def test_two_dimensional_cylinder(self):
        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (9, 7), 0.0, 0.5, 12)
        u = self.field(g, 2)
        fields = nontangential_max(u, 1.3, UNIT_SQUARE)
        for face in lateral_faces(g, UNIT_SQUARE):
            vals = cone_oracle(u, 1.3, face, UNIT_SQUARE.r0)
            assert np.array_equal(fields[face.key].values, vals), face.key

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=random_faces(), eta=st.floats(0.05, 30.0))
    def test_random_grids(self, case, eta):
        u, dom, cut = case
        fields = nontangential_max(u, eta, dom)
        for face in lateral_faces(u.grid, dom):
            assert np.array_equal(fields[face.key].values,
                                  cone_oracle(u, eta, face, cut)), face.key

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=random_faces(), eta=st.floats(0.05, 30.0))
    def test_box_cone_between_ellipse_cones(self, case, eta):
        # the box |dx|_inf < rho, |s - t| <= rho^2 holds the ellipse of rho
        # and lies in the ellipse of c rho when c^2 (c^2 - (d - 1)) > 1:
        # c > sqrt(golden ratio) = 1.2720 for d = 2, sqrt(1 + sqrt 2) =
        # 1.5538 for d = 3
        u, dom, cut = case
        c = {2: 1.28, 3: 1.56}[u.grid.d]
        fields = nontangential_max(u, eta, dom)
        for face in lateral_faces(u.grid, dom):
            N = fields[face.key].values
            assert np.all(ellipse_oracle(u, eta, face, cut) <= N), face.key
            assert np.all(N <= ellipse_oracle(u, c * eta, face, cut)), \
                face.key
