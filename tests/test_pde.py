import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from parahom import pde
from parahom.coeffs import (CoefficientField, field_from_json, preset,
                            scale_field)
from parahom.geometry import (GraphDomain, LipschitzCylinder, ParabolicCube,
                              flatten_pullback)
from parahom.pde import (BoundaryData, IncompatibleDataError, ScalarField,
                         SpaceTimeGrid, graded_axis, adjoint_trace, halfspace,
                         lateral_faces, load_field, nt_trace_ratio,
                         q_difference, save_field, solve_dirichlet,
                         solve_impulse)

HALF = GraphDomain(m=0.0, box=((-4.0, 4.0),))
WAVY = GraphDomain(m=0.5, box=((-4.0, 4.0),),
                   phi=lambda x: 0.5 * np.sin(np.asarray(x)[..., 0]))
# the sweep's half space and graph row
SWEEP_HALF = GraphDomain(m=0.0, box=((-64.0, 64.0),))
SWEEP_GRAPH = GraphDomain(
    m=0.5, box=((-48.0, 48.0),),
    phi=lambda x: 0.5 * np.abs(np.sin(np.asarray(x)[..., 0])) - 0.25)


def ramp(t, tau=0.15):
    return 1.0 - np.exp(-(max(t, 0.0) / tau) ** 2)


def bump_data(width=0.5, tau=0.15, center=0.0):
    def ev(pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return ramp(t, tau) * np.exp(-(pts[:, 0] - center) ** 2 / width ** 2)
    return BoundaryData(ev)


def small_grid(nx=64, nlam=24, nt=48, t1=1.0):
    return halfspace(-4.0, 4.0, 2.0, 0.0, t1, (nx, nlam), nt)


PROBES = ([0.1, 0.4], [-0.7, 1.1], [1.3, 0.2])


def read(u, pts):
    """u.value_at at each row (t, X) of pts."""
    return np.array([u.value_at(p[1:], p[0]) for p in pts])


# The two face builders that `graded_axis` replaced, kept verbatim as the
# reference it must match bitwise (one uniform core; several segments).
_GROWTH = 1.3


def _graded_axis_reference(core_lo, core_hi, h_core, lo, hi, h_max=None):
    if not (lo <= core_lo < core_hi <= hi):
        raise ValueError("core must sit inside the outer interval")
    ncore = max(1, int(round((core_hi - core_lo) / h_core)))
    faces = list(np.linspace(core_lo, core_hi, ncore + 1))
    h_max = h_max if h_max is not None else 16.0 * h_core
    h = h_core
    while faces[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        h = min(h * _GROWTH, h_max, hi - faces[-1])
        if hi - (faces[-1] + h) < 0.5 * h_core:
            h = hi - faces[-1]
        faces.append(faces[-1] + h)
    h = h_core
    while faces[0] > lo + 1e-12 * max(1.0, abs(lo)):
        h = min(h * _GROWTH, h_max, faces[0] - lo)
        if (faces[0] - h) - lo < 0.5 * h_core:
            h = faces[0] - lo
        faces.insert(0, faces[0] - h)
    return np.asarray(faces)


def _composite_axis_reference(segments, lo, hi):
    segs = sorted((float(a), float(b), float(h)) for a, b, h in segments)
    merged = []
    for a, b, h in segs:
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
    h_max = max(16.0 * max(h for _, _, h in merged), (hi - lo) / 64.0)

    def uniform(a, b, h):
        n = max(1, int(round((b - a) / h)))
        return np.linspace(a, b, n + 1)

    def gap(a, b, ha, hb):
        """Interior faces between a and b, growing from both ends."""
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
        mid = R[-1] - L[-1]
        if mid > 1e-12 * max(1.0, abs(b) + abs(a)):
            out = L + list(reversed(R))
        else:
            out = L + list(reversed(R[:-1]))
        return np.asarray(out[1:-1])

    pieces = []
    a0, b0, h0 = merged[0]
    if a0 > lo + 1e-12 * max(1.0, abs(lo)):
        left = _graded_axis_reference(a0, b0, h0, lo, b0, h_max)
        pieces.append(left[left <= a0 + 1e-15])
    for i, (a, b, h) in enumerate(merged):
        pieces.append(uniform(a, b, h))
        if i + 1 < len(merged):
            na, nb, nh = merged[i + 1]
            pieces.append(gap(b, na, h, nh))
    a1, b1, h1 = merged[-1]
    if b1 < hi - 1e-12 * max(1.0, abs(hi)):
        right = _graded_axis_reference(a1, b1, h1, a1, hi, h_max)
        pieces.append(right[right >= b1 - 1e-15][1:])
    faces = np.concatenate([np.atleast_1d(p) for p in pieces if len(p)])
    faces = np.unique(faces)
    keep = np.append(True, np.diff(faces) > 1e-9 * max(1.0, np.abs(faces).max()))
    return faces[keep]


@st.composite
def axis_segments(draw):
    """1-3 segments sharing one spacing h, as `_measure_grid` lays them,
    with lo/hi margins that may be empty or clip the segments, and the
    second segment optionally starting at the end of the first: exactly,
    overlapping or apart by 1e-13 (these merge), or apart by 5e-12 (these
    do not, and the near-duplicate filter drops one face)."""
    h = draw(st.floats(0.01, 0.5), label="h")
    segs = []
    for i in range(draw(st.integers(1, 3), label="segments")):
        a = draw(st.floats(-8.0, 8.0), label=f"start {i}")
        segs.append((a, a + draw(st.floats(0.05, 4.0), label=f"length {i}"), h))
    touch = draw(st.sampled_from([None, 0.0, 1e-13, -1e-13, 5e-12]),
                 label="second segment start - first segment end")
    if touch is not None and len(segs) > 1:
        a = segs[0][1] + touch
        segs[1] = (a, a + segs[1][1] - segs[1][0], h)
    pad = st.one_of(st.just(0.0), st.floats(-3.0, 20.0))
    lo = min(a for a, _, _ in segs) - draw(pad, label="low margin")
    hi = max(b for _, b, _ in segs) + draw(pad, label="high margin")
    return segs, lo, hi


class TestGrid:
    def test_geometry(self):
        g = small_grid()
        assert g.d == 2
        assert g.ncells == 64 * 24

    def test_tangential_centers(self):
        g = small_grid(nx=8, nlam=4)
        tc = g.tangential_centers()
        assert tc.shape == (8, 1)
        assert np.array_equal(tc[:, 0], g.axis_centers(0))
        assert np.array_equal(
            tc, g.centers().reshape(8, 4, 2)[:, 0, :1])

    def test_graded_axis(self):
        f = graded_axis([(-1.0, 1.0, 0.125)], -5.0, 7.0, 2.0)
        assert f[0] == pytest.approx(-5.0)
        assert f[-1] == pytest.approx(7.0)
        inner = f[(f >= -1) & (f <= 1)]
        assert np.allclose(np.diff(inner), 0.125)
        g = SpaceTimeGrid((f, np.linspace(0, 1, 9)), 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="graded"):
            g.h
        assert g.cell_volumes().sum() == pytest.approx(12.0 * 1.0)

    @pytest.mark.parametrize("faces", [[0.0, 1e-9, 4e-9],
                                       [1e6, 1e6 + 1.0, 1e6 + 2.00001]],
                             ids=["tiny", "offset"])
    def test_uniformity_rule_is_scale_free(self, faces):
        # each graded axis passes an absolute-tolerance closeness test;
        # linspace axes over the same span must still read uniform
        lo, hi = faces[0], faces[-1]
        for n in (1, 3, 128, 1000):
            g = SpaceTimeGrid.uniform((lo,), (hi,), (n,), 0.0, 1.0, 4)
            assert g.h == ((hi - lo) / n,)
        with pytest.raises(ValueError, match="graded"):
            SpaceTimeGrid((np.array(faces),), 0.0, 1.0, 4).h

    def test_boxes_cut_from_uniform_axes_read_uniform(self):
        # a run of faces cut from a wider np.linspace axis carries that
        # axis' roundoff; seeded probe of random boxes around 0
        rng = np.random.default_rng(0)
        for _ in range(5000):
            n = int(rng.integers(8, 769))
            f = np.linspace(rng.uniform(-8.0, 0.0), rng.uniform(0.0, 8.0),
                            n + 1)
            i = int(rng.integers(0, n))
            j = int(rng.integers(i + 1, n + 1))
            g = SpaceTimeGrid((f[i:j + 1],), 0.0, 1.0, 4)
            assert g.h == pytest.approx(((f[j] - f[i]) / (j - i),),
                                        rel=1e-12)

    def test_uniform_grid_stores_its_faces(self):
        g = small_grid(nx=8, nlam=4)
        u = SpaceTimeGrid(g.faces, g.t0, g.t1, g.nt)
        assert np.array_equal(g.faces[0], np.linspace(-4.0, 4.0, 9))
        assert (g.lo, g.hi, g.shape) == (u.lo, u.hi, u.shape)
        assert g.h == u.h == ((4.0 - -4.0) / 8, 2.0 / 4)
        assert not g.faces[1].flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid.uniform((0.0,), (0.0,), (4,), 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            SpaceTimeGrid.uniform((0.0,), (1.0,), (4,), 0.0, 0.0, 4)
        with pytest.raises(ValueError, match="axis 1 has non-finite"):
            SpaceTimeGrid.uniform((-4.0, 0.0), (4.0, np.nan), (8, 4),
                                  0.0, 1.0, 4)
        with pytest.raises(ValueError, match="at least one axis"):
            SpaceTimeGrid.uniform((), (), (), 0.0, 1.0, 4)

    @pytest.mark.parametrize("faces, t0, t1, match", [
        ((), 0.0, 1.0, "at least one axis"),
        ((np.array([0.0, np.nan, 1.0]),), 0.0, 1.0, "axis 0 has non-finite"),
        ((np.linspace(0.0, 1.0, 5), np.array([0.0, np.inf])), 0.0, 1.0,
         "axis 1 has non-finite"),
        ((np.array([0.0, 1.0, 1.0]),), 0.0, 1.0, "axis 0 faces must strictly"),
        ((np.linspace(0.0, 1.0, 5),), 0.0, np.inf, "must be finite"),
        ((np.linspace(0.0, 1.0, 5),), 0.0, np.nan, "must be finite"),
        ((np.linspace(0.0, 1.0, 5),), -np.inf, 1.0, "must be finite"),
    ], ids=["no-axis", "nan-face", "inf-face", "flat-cell", "t1-inf",
            "t1-nan", "t0-inf"])
    def test_refuses_axisless_and_non_finite(self, faces, t0, t1, match):
        with pytest.raises(ValueError, match=match):
            SpaceTimeGrid(faces, t0, t1, 4)

    def test_faces_are_frozen_copies(self):
        # neither a grid that is built nor one refused after its faces are
        # checked freezes the caller's arrays; the grid's own are read-only
        f, lam = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)
        g = SpaceTimeGrid((f, lam), 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="must be finite"):
            SpaceTimeGrid((f, lam), 0.0, np.nan, 4)
        f[0] = lam[0] = -1.0
        assert g.faces[0][0] == g.faces[1][0] == 0.0
        assert not any(a.flags.writeable for a in g.faces)


class TestGradedAxis:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(axis=axis_segments())
    def test_matches_composite_reference(self, axis):
        segs, lo, hi = axis
        h = segs[0][2]
        try:
            want = _composite_axis_reference(segs, lo, hi)
        except ValueError:
            with pytest.raises(ValueError, match="no segment"):
                graded_axis(segs, lo, hi, 16.0 * h)
            return
        got = graded_axis(segs, lo, hi, max(16.0 * h, (hi - lo) / 64.0))
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(a=st.floats(-8.0, 8.0), length=st.floats(0.05, 4.0),
           h=st.floats(0.01, 0.5),
           pads=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.01, 20.0))] * 2))
    def test_matches_single_core_reference(self, a, length, h, pads):
        b = a + length
        lo, hi = a - pads[0], b + pads[1]
        assert np.array_equal(graded_axis([(a, b, h)], lo, hi, 16.0 * h),
                              _graded_axis_reference(a, b, h, lo, hi))

    def test_segments_uniform_and_cells_capped(self):
        segs = [(-3.0, -1.0, 0.1), (2.0, 3.0, 0.05)]
        f = graded_axis(segs, -10.0, 12.0, 0.5)
        assert (f[0], f[-1]) == (-10.0, 12.0)
        assert np.all(np.diff(f) > 0)
        outside = np.ones(f.size - 1, dtype=bool)
        for a, b, h in segs:
            i, j = np.searchsorted(f, [a, b])
            assert (f[i], f[j]) == (a, b)
            assert np.allclose(np.diff(f[i:j + 1]), h, rtol=1e-12)
            outside[i:j] = False
        margin_and_gap = np.diff(f)[outside]
        assert margin_and_gap.size > 0
        assert margin_and_gap.max() <= 0.5 * (1 + 1e-12)   # face roundoff


class TestSolveDirichlet:
    def test_maximum_principle_and_saturation(self):
        f = BoundaryData(lambda pts, t: np.full(len(np.atleast_2d(pts)),
                                                ramp(t)))
        u = solve_dirichlet(preset("trig", d=2), HALF, f,
                            halfspace(-8.0, 8.0, 2.0, 0.0, 6.0, (96, 24), 96))
        assert u.values.min() >= -1e-12
        assert u.values.max() <= 1.0 + 1e-12
        # u -> 1 locally as t grows (center, first layers)
        assert u.values[-1, 48, 0] >= 0.95

    def test_linear_caloric_data(self):
        # f = x1 (ramped); x1 is caloric.  On the truncated box the zero top
        # face forces the steady profile x1 (1 - lam/L); near the boundary
        # (first layer) the truncation influence is small and u tracks x1.
        def ev(pts, t):
            return ramp(t, 0.05) * np.atleast_2d(pts)[:, 0]
        f = BoundaryData(ev)
        L = 1.0
        grid = halfspace(-4.0, 4.0, L, 0.0, 2.0, (128, 16), 128)
        u = solve_dirichlet(preset("constant", d=2), HALF, f, grid)
        xs = grid.axis_centers(0)
        lam = grid.axis_centers(1)
        sel = np.abs(xs) <= 1.0
        late = u.values[-1][sel, :]
        steady = xs[sel][:, None] * (1.0 - lam[None, :] / L)
        assert np.abs(late - steady).max() <= 0.02
        assert np.abs(late[:, 0] - xs[sel] * (1 - lam[0])).max() <= 0.02
        assert np.abs(late[:, 0] - xs[sel]).max() <= 0.05  # near-trace ~ x1

    def test_incompatible_data_rejected(self):
        # a datum that is 1 at t0, and one that is NaN there
        for value in (1.0, np.nan):
            f = BoundaryData(
                lambda pts, t, v=value: np.full(len(np.atleast_2d(pts)), v))
            with pytest.raises(IncompatibleDataError):
                solve_dirichlet(preset("constant", d=2), HALF, f, small_grid())

    def test_discrete_maximum_principle_randomized(self):
        rng = np.random.default_rng(7)
        grid = small_grid(nx=48, nlam=16, nt=32)
        for trial in range(50):
            name = ("constant", "laminate", "trig")[trial % 3]
            A = preset(name, d=2)
            c = np.array([rng.uniform(0.2, 2.0), rng.uniform(-2, 2),
                          rng.uniform(0.2, 1.0)])

            def ev(pts, t, c=c):
                pts = np.atleast_2d(np.asarray(pts, dtype=float))
                return c[0] * ramp(t) * np.exp(-(pts[:, 0] - c[1]) ** 2 / c[2])
            u = solve_dirichlet(A, HALF, BoundaryData(ev), grid)
            fmax = u.bottom_trace.max()
            assert u.values.min() >= -1e-12 * max(1.0, fmax)
            assert u.values.max() <= fmax * (1 + 1e-12) + 1e-12

    def test_linearity(self):
        grid = small_grid()
        A = preset("laminate", d=2)
        f = bump_data()
        g = bump_data(width=0.3, center=0.8)
        u_f = solve_dirichlet(A, HALF, f, grid)
        u_g = solve_dirichlet(A, HALF, g, grid)
        combo = BoundaryData(lambda pts, t: 2.0 * f(pts, t) - 0.5 * g(pts, t))
        u_c = solve_dirichlet(A, HALF, combo, grid)
        diff = np.abs(u_c.values - (2.0 * u_f.values - 0.5 * u_g.values)).max()
        assert diff <= 1e-10 * np.abs(u_c.values).max()

    def test_bitwise_determinism(self):
        grid = small_grid()
        A = preset("trig", d=2)
        u1 = solve_dirichlet(A, HALF, bump_data(), grid)
        u2 = solve_dirichlet(A, HALF, bump_data(), grid)
        assert np.array_equal(u1.values, u2.values)

    def test_self_convergence_factor(self):
        A = preset("trig2d", d=2)
        dom = GraphDomain(m=0.0, box=((-2.0, 2.0),))
        f = bump_data()

        def solve_at(n):
            g = SpaceTimeGrid.uniform((-2.0, 0.0), (2.0, 2.0), (n, n // 2),
                                      0.0, 1.0, n)
            return solve_dirichlet(A, dom, f, g)

        u1, u2, u3 = solve_at(32), solve_at(64), solve_at(128)
        probes = np.stack(np.meshgrid(np.linspace(0.2, 0.9, 7),
                                      np.linspace(-1.2, 1.2, 9),
                                      np.linspace(0.2, 1.5, 7),
                                      indexing="ij"), axis=-1).reshape(-1, 3)
        d12 = np.abs(read(u1, probes) - read(u2, probes)).max()
        d23 = np.abs(read(u2, probes) - read(u3, probes)).max()
        assert d12 / d23 >= 1.7

    def test_cylinder_solve(self):
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=0.5)
        grid = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (32, 32),
                                     0.0, 0.5, 32)

        def ev(pts, t):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return ramp(t) * np.exp(-np.sum((pts - 0.5) ** 2, axis=1) / 0.1)
        u = solve_dirichlet(preset("laminate", d=2), dom,
                            BoundaryData(ev), grid)
        assert u.values.min() >= -1e-12
        assert u.values.max() <= 1.0 + 1e-12
        assert u.values[0].max() == 0.0

    def test_faces_share_one_data_call_per_level(self):
        # a different datum on each face of a 3-d box, picked by the face
        # the point lies on: one evaluation per level on every face's
        # points equals a march that evaluates and adds face by face
        grid = SpaceTimeGrid.uniform((0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                     (5, 4, 3), 0.0, 0.5, 4)
        dom = LipschitzCylinder(base_box=((0.0, 1.0),) * 3, T=0.5)
        keys = [face.key for face in lateral_faces(grid, dom)]
        calls = []

        def on_face(X, key):
            return X[:, key[0]] == float(key[1])

        def ev(X, t, live=frozenset(keys), at_t0=None):
            calls.append(len(X))
            vals = np.zeros(len(X))
            for n, key in enumerate(keys):
                if key in live:
                    vals[on_face(X, key)] = np.sin((n + 2.0) * t) \
                        * np.exp((n + 1) * X[on_face(X, key)] @ [1, -0.5, 0.3])
            if at_t0 is not None and t == grid.t0:
                vals[on_face(X, at_t0)] = 1.0
            return vals

        A = preset("trig", d=3)
        op = pde._assemble(A, dom, grid)
        mass, _, lu = pde._factor(op, grid.dt)
        whole, bottom = [np.zeros(grid.ncells)], [np.zeros((5, 4))]
        for t in grid.times()[1:]:
            rhs = mass * whole[-1]
            for face in lateral_faces(grid, dom):
                g = op.groups[face.key]
                vals = ev(face.points, t)
                rhs[g.cells] += g.weights * vals
                if face.key == (2, 0):
                    bottom.append(vals.reshape(5, 4))
            whole.append(lu.solve(rhs, trans="T"))
        calls.clear()
        u = solve_dirichlet(A, dom, BoundaryData(ev), grid)
        assert calls == [sum(g.cells.size for g in op.groups.values())] \
            * (grid.nt + 1)
        assert u.values.tobytes() == np.stack(whole).tobytes()
        assert u.bottom_trace.tobytes() == np.stack(bottom).tobytes()
        for key in keys:
            f = BoundaryData(
                lambda X, t, k=key: ev(X, t, frozenset(), at_t0=k))
            with pytest.raises(IncompatibleDataError,
                               match=rf"on face \({key[0]}, {key[1]}\)$"):
                solve_dirichlet(A, dom, f, grid)

    def test_batch_paths_agree(self):
        # one trace serves every datum on the face: f and -3 f both match
        # the forward field at t1
        dom = WAVY
        A = preset("trig", d=2)
        grid = small_grid(nx=32, nlam=12, nt=16)
        f = bump_data()
        face, = lateral_faces(grid, dom)
        g = np.stack([f(face.points, t) for t in grid.times()[1:]])
        u = solve_dirichlet(A, dom, f, grid)
        scale = np.abs(u.values).max()
        for probe in PROBES:
            K = adjoint_trace(A, dom, grid, probe)
            assert K.shape == (grid.nt, face.points.shape[0])
            final = np.einsum("kf,kfc->c", K,
                              np.stack([g, -3.0 * g], axis=-1))
            ref = u.value_at(probe, grid.t1)
            assert abs(final[0] - ref) <= 1e-12 * scale
            assert abs(final[1] + 3.0 * ref) <= 3e-12 * scale

    @pytest.mark.parametrize("name,dom", [
        ("constant", HALF), ("laminate", HALF), ("trig", HALF),
        ("trig", WAVY)])
    def test_adjoint_equals_forward(self, name, dom):
        # data that switches off halfway, so the final values come from the
        # decay stretch as well
        A = preset(name, d=2)
        grid = small_grid(nx=32, nlam=12, nt=24)
        t_off = 0.5 * (grid.t0 + grid.t1)

        def column(center, height):
            def ev(pts, t):
                pts = np.atleast_2d(np.asarray(pts, dtype=float))
                on = height * np.sin(np.pi * t / t_off) ** 2 \
                    if t < t_off else 0.0
                return on * np.exp(-(pts[:, 0] - center) ** 2 / 0.25)
            return BoundaryData(ev)

        face, = lateral_faces(grid, dom)
        Ks = [adjoint_trace(A, dom, grid, probe) for probe in PROBES]
        for f in (column(0.0, 1.0), column(1.2, -2.0)):
            # P u_N = sum_k K[k-1] . g(t_k)
            final = np.array([sum(K[k - 1] @ f(face.points, t)
                                  for k, t in enumerate(grid.times()) if k)
                              for K in Ks])
            u = solve_dirichlet(A, dom, f, grid)
            ref = np.array([u.value_at(probe, grid.t1) for probe in PROBES])
            assert np.abs(ref).max() > 0.0
            assert np.abs(final - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("probe", [[100.0, -5.0], [0.1, 0.4, 0.0],
                                       [0.1, np.nan]],
                             ids=["outside", "three-coordinates", "nan"])
    def test_probe_outside_the_grid_refused(self, probe):
        # the edge cell's kernel is not the kernel of a point past the face
        grid = small_grid(nx=16, nlam=8, nt=4)
        match = "outside the grid" if len(probe) == 2 else "3 coordinates"
        with pytest.raises(ValueError, match=match):
            adjoint_trace(preset("constant", d=2), HALF, grid, probe)

    def test_residual_contract_checked(self, monkeypatch):
        # LU factors of the step matrix for 2 dt: every solve misses the
        # equations the march checks by far more than 1e-10
        factor = pde._factor

        def wrong_factor(op, dt):
            *exact, _ = factor(op, dt)
            return (*exact, factor(op, 2.0 * dt)[-1])

        monkeypatch.setattr(pde, "_factor", wrong_factor)
        A = preset("trig", d=2)
        grid = small_grid(nx=32, nlam=12, nt=8)
        with pytest.raises(RuntimeError, match="residual"):
            solve_dirichlet(A, HALF, bump_data(), grid)
        with pytest.raises(RuntimeError, match="residual"):
            adjoint_trace(A, HALF, grid, [0.1, 0.4])

    def test_zero_data_passes_residual_check(self):
        zero = BoundaryData(lambda pts, t: np.zeros(len(pts)))
        u = solve_dirichlet(preset("trig", d=2), HALF, zero,
                            small_grid(nx=32, nlam=12, nt=8))
        assert not u.values.any()

    def test_coefficients_checked_where_the_solver_uses_them(self,
                                                             monkeypatch):
        # 1.2 + 0.3 x1 passes field_from_json's sample of [-2, 2]^2 but is
        # -1.12 at the first cell center of [-8, 8]
        from parahom.coeffs import field_from_json
        from parahom.harness import data_from_json, domain_from_json

        def no_factor(*args):
            raise AssertionError("factorized before the check")

        monkeypatch.setattr(pde, "_factor", no_factor)
        A = field_from_json({"expr": "1.2+0.3*x1"})
        dom = domain_from_json({"kind": "halfspace", "box": [[-8, 8]]})
        grid = SpaceTimeGrid.uniform((-8.0, 0.0), (8.0, 2.0), (30, 8),
                                     0.0, 1.0, 8)
        with pytest.raises(ValueError, match=r"lam = 2: cell-center "
                           r"eigenvalues span \[-1.12, 3.52\]"):
            solve_dirichlet(A, dom, data_from_json(None), grid)
        # on [-2.4, 2.4] the cell centers hold 0.57..1.83, in [1/2, 2], but
        # the lo face x1 = -2.4 holds 0.48
        grid = SpaceTimeGrid.uniform((-2.4, 0.0), (2.4, 2.0), (8, 8),
                                     0.0, 1.0, 8)
        with pytest.raises(ValueError, match=r"face \(0, 0\) eigenvalues "
                           r"span \[0.48, 0.48\]"):
            adjoint_trace(A, dom, grid, [0.1, 0.4])

    def test_flattened_graph_solve(self):
        dom = GraphDomain(m=0.5, box=((-4.0, 4.0),),
                          phi=lambda x: 0.5 * np.sin(np.asarray(x)[..., 0]))
        u = solve_dirichlet(preset("constant", d=2), dom, bump_data(),
                            small_grid())
        assert np.isfinite(u.values).all()
        assert u.values.max() <= 1.0 + 1e-9   # cross terms keep bounds here

    def test_wavy_graph_grid_must_stay_in_its_box(self):
        # WAVY is defined on x in (-4, 4); this grid reaches x = +-6
        grid = halfspace(-6.0, 6.0, 2.0, 0.0, 0.5, (48, 8), 8)
        with pytest.raises(ValueError, match="box"):
            solve_dirichlet(preset("constant", d=2), WAVY, bump_data(), grid)


class TestFactor:
    def test_fill_reducing_order(self):
        # the default homogenize step matrix: 128^2 cells on the unit square,
        # laminate at eps = 1/16, dt = 1/192
        grid = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (128, 128),
                                     0.0, 1.0, 192)
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=1.0)
        op = pde._assemble(scale_field(preset("laminate", d=2), 1 / 16), dom,
                           grid)
        mass, *_, lu = pde._factor(op, grid.dt)
        default = spla.splu((sp.diags(mass) + op.S).tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)

    def test_every_march_solves_on_the_transposed_path(self, monkeypatch):
        # SuperLU's "T" solve is the faster one: the forward marches solve
        # M x = b on the factors of M^T, the adjoint march M^T w = z on
        # those of M
        factor, calls = pde._factor, []

        class Spy:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs, trans="N"):
                calls.append(trans)
                return self.lu.solve(rhs, trans=trans)

        def spied(op, dt):
            mass, M, lu = factor(op, dt)
            return mass, M, Spy(lu)

        monkeypatch.setattr(pde, "_factor", spied)
        A = preset("trig", d=2)
        grid = small_grid(nx=32, nlam=12, nt=8)
        solve_dirichlet(A, WAVY, bump_data(), grid)
        solve_impulse(A, HALF, [0.1, 0.9], grid)
        adjoint_trace(A, WAVY, grid, [0.1, 0.4])
        assert calls == ["T"] * (3 * grid.nt)

    def test_transposed_solve_on_a_nonsymmetric_step_matrix(self):
        # the sweep's graph row: the shear pullback of |sin x| makes the
        # step matrix nonsymmetric, and lu.solve(b, "T") still solves M x = b
        from parahom.potential import PotentialConfig, _measure_grid
        from parahom.geometry import ParabolicPoint

        grid = _measure_grid(ParabolicPoint(np.array([0.0, 1.0]), 5.0),
                             ParabolicCube(np.zeros(1), 0.0, 0.5),
                             PotentialConfig())
        op = pde._assemble(preset("constant", d=2), SWEEP_GRAPH, grid)
        _, M, lu = pde._factor(op, grid.dt)
        assert (M != M.T).nnz > 0
        b = np.random.default_rng(2).normal(size=grid.ncells)
        x = lu.solve(b, trans="T")
        assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)


def _adjoint_reference(A, dom, grid, probe):
    """The backward loop `adjoint_trace` ran before it became a march of
    `_solve_field`, kept as its reference (its residual check left out):
    w_N = M^-T P^T and w_{k-1} = M^-T D w_k on the factors of the
    transposed operator, K[k-1] = B w_k on the graph's one face."""
    box, weights = pde._probe(grid, probe)
    op = pde._assemble(A, dom, grid)
    op = op._replace(S=op.S.T.tocsr())
    g = op.groups[(grid.d - 1, 0)]
    z = np.zeros(grid.shape)
    z[box] = weights
    z = z.reshape(-1)
    out = np.empty((grid.nt, g.cells.size))
    mass, _, lu = pde._factor(op, grid.dt)
    for step in range(grid.nt, 0, -1):
        w = lu.solve(z, trans="T")
        out[step - 1] = g.weights * w[g.cells]
        z = mass * w
    return out


COEFFS = ("constant", "laminate", "trig")


class TestAdjointMarch:
    """`adjoint_trace` is the forward march of S^T in `_solve_field`."""

    @pytest.mark.parametrize("dom", [HALF, WAVY], ids=["half", "wavy"])
    @pytest.mark.parametrize("name", COEFFS)
    def test_probes_match_the_backward_loop(self, name, dom):
        A = preset(name, d=2)
        grid = small_grid(nx=32, nlam=12, nt=24)
        for probe in PROBES:
            assert np.array_equal(adjoint_trace(A, dom, grid, probe),
                                  _adjoint_reference(A, dom, grid, probe))

    @pytest.mark.parametrize("dom", [SWEEP_HALF, SWEEP_GRAPH],
                             ids=["half", "graph"])
    @pytest.mark.parametrize("name", COEFFS)
    def test_sweep_pole_matches_the_backward_loop(self, name, dom):
        from parahom.geometry import ParabolicPoint
        from parahom.potential import PotentialConfig, _measure_grid

        pole = ParabolicPoint(np.array([0.0, 1.0]), 5.0)
        grid = _measure_grid(pole, ParabolicCube(np.zeros(1), 0.0, 0.5),
                             PotentialConfig())
        A = preset(name, d=2)
        assert np.array_equal(adjoint_trace(A, dom, grid, pole.X),
                              _adjoint_reference(A, dom, grid, pole.X))

    @pytest.mark.parametrize("dom", [HALF, WAVY], ids=["half", "wavy"])
    @pytest.mark.parametrize("name", COEFFS)
    def test_off_center_probes_match_to_roundoff(self, name, dom):
        # the march starts from u0 = P^T / mass, whose first step
        # multiplies by mass again: (z / m) * m rounds to z in all but the
        # last bit for some pairs on graded cells, and that one-ulp change
        # of the first right-hand side carries through the linear march as
        # a few eps of the kernel, not as a different kernel
        grid = SpaceTimeGrid(
            (graded_axis([(-1.0, 1.0, 0.125)], -4.0, 4.0, 1.0),
             graded_axis([(0.0, 0.5, 0.0625), (0.9, 1.3, 0.0625)],
                         0.0, 2.0, 0.5)), 0.0, 1.0, 24)
        A = preset(name, d=2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            probe = [rng.uniform(-3.5, 3.5), rng.uniform(0.05, 1.9)]
            K = adjoint_trace(A, dom, grid, probe)
            ref = _adjoint_reference(A, dom, grid, probe)
            assert np.abs(K - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_cylinder_refused_before_assembly(self, monkeypatch):
        # the kernel lives on a graph's one face; a cylinder has 2d faces
        def no_assembly(*args):
            raise AssertionError("assembled for a cylinder")

        monkeypatch.setattr(pde, "_assemble", no_assembly)
        grid = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (8, 8),
                                     0.0, 0.5, 4)
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=0.5)
        with pytest.raises(ValueError, match="graph domain"):
            adjoint_trace(preset("constant", d=2), dom, grid, [0.5, 0.5])

    def test_one_solve_and_one_factorization_in_the_module(self):
        # every march of the package is `_solve_field`'s loop
        import ast
        import inspect

        calls = [node.func for node in ast.walk(ast.parse(
            inspect.getsource(pde))) if isinstance(node, ast.Call)]
        assert sum(isinstance(f, ast.Attribute) and f.attr == "solve"
                   for f in calls) == 1
        assert sum(isinstance(f, ast.Name) and f.id == "_factor"
                   for f in calls) == 1


def _coo_assemble(A, grid):
    """Flat-index COO assembly of the finite-volume operator, duplicates
    summed by `tocsr`: an independent reference for `pde._assemble`.
    Returns (S, {(axis, side): (cells, weights)})."""
    d, shape, nc = grid.d, grid.shape, grid.ncells
    strides = np.array([int(np.prod(shape[k + 1:])) for k in range(d)])
    pts = grid.centers()
    Avals = A(pts)
    volumes = grid.cell_volumes().reshape(-1)
    cell_idx = np.arange(nc).reshape(shape)
    multi = np.indices(shape)

    def cellwise(arr, k):
        shp = [1] * d
        shp[k] = -1
        return np.broadcast_to(np.reshape(arr, shp), shape).reshape(-1)

    rows, cols, vals, groups = [], [], [], {}
    for k in range(d):
        spac = cellwise(grid.axis_spacings(k), k)
        akk = Avals[:, k, k]
        area = volumes / spac
        lower = tuple(slice(0, -1) if a == k else slice(None)
                      for a in range(d))
        L = cell_idx[lower].reshape(-1)
        R = L + strides[k]
        tf = area[L] / (0.5 * spac[L] / akk[L] + 0.5 * spac[R] / akk[R])
        rows += [L, R, L, R]
        cols += [L, R, R, L]
        vals += [tf, tf, -tf, -tf]
        for side in (0, 1):
            cells = np.take(cell_idx, -side, axis=k).reshape(-1)
            face_pts = pts[cells].copy()
            face_pts[:, k] = (grid.lo, grid.hi)[side][k]
            tb = A(face_pts)[:, k, k] * area[cells] / (0.5 * spac[cells])
            rows.append(cells)
            cols.append(cells)
            vals.append(tb)
            groups[(k, side)] = (cells, tb)
        for j in range(d):
            if j == k or not np.abs(Avals[:, k, j]).max() > 1e-14:
                continue
            ij = multi[j][lower].reshape(-1)
            ok = (ij >= 1) & (ij <= shape[j] - 2)
            Lv = L[ok]
            Rv = Lv + strides[k]
            akj = 0.5 * (Avals[Lv, k, j] + Avals[Rv, k, j])
            area_f = 0.5 * (area[Lv] + area[Rv])
            cj = cellwise(grid.axis_centers(j), j)
            for base in (Lv, Rv):
                span = cj[base + strides[j]] - cj[base - strides[j]]
                w = 0.5 * akj * area_f / span
                for col, s in ((base + strides[j], -1.0),
                               (base - strides[j], 1.0)):
                    rows += [Lv, Rv]
                    cols += [col, col]
                    vals += [s * w, -s * w]
    S = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nc, nc)).tocsr()
    return S, groups


def assert_matches_coo_reference(A, grid, graph=None):
    """The same stored pattern (so the MMD column order and the LU fill
    hold), entries within 1e-14 max|S|, and bitwise-equal face groups; on
    a graph domain the reference assembles the field's shear pullback."""
    op = pde._assemble(A, graph, grid)
    S_ref, groups_ref = _coo_assemble(
        A if graph is None else flatten_pullback(graph, A), grid)
    assert np.array_equal(op.S.indptr, S_ref.indptr)
    assert np.array_equal(op.S.indices, S_ref.indices)
    assert np.abs(op.S.data - S_ref.data).max() \
        <= 1e-14 * np.abs(S_ref.data).max()
    assert op.groups.keys() == groups_ref.keys()
    for key, (cells, weights) in groups_ref.items():
        assert np.array_equal(op.groups[key].cells, cells), key
        assert op.groups[key].weights.tobytes() == weights.tobytes(), key
    assert op.volumes.tobytes() == grid.cell_volumes().tobytes()


def _random_field(d, seed, coupling):
    """A smooth symmetric field, eigenvalues in [1.1, 2.9], its off-diagonal
    entries scaled by coupling: 0 and roundoff (1e-16, below the 1e-14 at
    which a pair enters) give the 2d + 1 point stencil, 1 the full one."""
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-0.1, 0.1, (d, d, d))
    phase = rng.uniform(0.0, 1.0, (d, d, d))
    amp, phase = (0.5 * (x + x.transpose(1, 0, 2)) for x in (amp, phase))
    amp *= np.where(np.eye(d, dtype=bool), 1.0, coupling)[..., None]

    def ev(X):
        waves = np.sin(2 * np.pi * (X[..., None, None, :] + phase))
        return 2.0 * np.eye(d) + (amp * waves).sum(axis=-1)
    return CoefficientField(ev, d=d, lam=4.0)


class TestAssembly:
    """`_assemble` against the flat-index COO reference."""

    def test_homogenize_step_operator(self):
        grid = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (128, 128),
                                     0.0, 1.0, 192)
        assert_matches_coo_reference(
            scale_field(preset("laminate", d=2), 1 / 16), grid)

    def test_trig_half_space(self):
        assert_matches_coo_reference(
            preset("trig", d=2),
            halfspace(-4.0, 4.0, 2.0, 0.0, 1.0, (224, 96), 8))

    @pytest.mark.parametrize("graded", [False, True])
    def test_flattened_wavy_graph(self, graded):
        grid = small_grid()
        if graded:
            grid = SpaceTimeGrid(
                (graded_axis([(-1.0, 1.0, 0.125)], -4.0, 4.0, 2.0),
                 graded_axis([(0.0, 0.5, 0.0625)], 0.0, 2.0, 1.0)), 0.0, 1.0, 8)
        assert_matches_coo_reference(preset("trig", d=2), grid, WAVY)

    def test_full_matrix_in_three_dimensions(self):
        # the middle axis has 3 cells: C_1 has one row
        grid = SpaceTimeGrid.uniform((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0),
                                     (6, 3, 5), 0.0, 1.0, 4)
        A = field_from_json({"entries": [
            ["2+0.3*sin(x1)", "0.3*cos(x2+x3)", "0.2*sin(x1*x3)"],
            ["0.3*cos(x2+x3)", "2.5+0.2*cos(x3)", "0.25*sin(x2)"],
            ["0.2*sin(x1*x3)", "0.25*sin(x2)", "3+0.4*sin(x1+x2)"]],
            "lam": 4.0}, d=3)
        assert_matches_coo_reference(A, grid)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(d=st.sampled_from([2, 3]), data=st.data(),
           seed=st.integers(0, 2 ** 16),
           coupling=st.sampled_from([0.0, 1e-16, 1.0]))
    def test_random_grids(self, d, data, seed, coupling):
        # graded axes of 1 to 5 cells: 1 and 2 cells leave C_j empty, 3
        # cells give it its one row
        rng = np.random.default_rng(seed)
        faces = []
        for k in range(d):
            n = data.draw(st.integers(1, 5), label=f"cells on axis {k}")
            h = rng.uniform(0.2, 1.0, n)
            faces.append(rng.uniform(-1.0, 1.0) + np.append(0.0, np.cumsum(h)))
        grid = SpaceTimeGrid(faces, 0.0, 1.0, 4)
        assert_matches_coo_reference(_random_field(d, seed, coupling), grid)


class TestNTTrace:
    def test_linear_field(self):
        grid = small_grid()
        lam = grid.axis_centers(1)
        vals = np.broadcast_to(lam, (grid.nt + 1,) + grid.shape).copy()
        u = ScalarField(grid, vals, np.zeros((grid.nt + 1, 64)))
        rich = nt_trace_ratio(u, ParabolicCube(np.zeros(1), 0.5, 0.5))
        assert np.abs(rich - 1.0).max() <= 1e-12

    def test_quadratic_field(self):
        grid = small_grid()
        lam = grid.axis_centers(1)
        vals = np.broadcast_to(lam ** 2, (grid.nt + 1,) + grid.shape).copy()
        u = ScalarField(grid, vals, np.zeros((grid.nt + 1, 64)))
        rich = nt_trace_ratio(u, ParabolicCube(np.zeros(1), 0.5, 0.5))
        # Richardson removes the linear bias exactly for u = lam^2
        assert np.abs(rich).max() <= 1e-12

    def test_trace_shape_checked(self):
        grid = small_grid()
        vals = np.zeros((grid.nt + 1,) + grid.shape)
        u = ScalarField(grid, vals, np.zeros((grid.nt + 1, 64)))
        assert not u.bottom_trace.flags.writeable
        for shape in [(grid.nt + 1, 24), (grid.nt, 64), (grid.nt + 1, 64, 1)]:
            with pytest.raises(ValueError, match="bottom trace shape"):
                ScalarField(grid, vals, np.zeros(shape))

    def test_trace_hypothesis_enforced(self):
        u = solve_dirichlet(preset("constant", d=2), HALF, bump_data(),
                            small_grid())
        with pytest.raises(ValueError, match="vanish"):
            nt_trace_ratio(u, ParabolicCube(np.zeros(1), 0.5, 0.5))


class TestWindow:
    def test_values_and_weights(self):
        grid = halfspace([-1.0], [1.0], 2.0, 0.0, 1.0, (8, 4), 4)
        vals = np.arange(5 * 8 * 4, dtype=float).reshape(5, 8, 4)
        u = ScalarField(grid, vals)
        mx = grid.axis_centers(0) > 0
        ml = np.array([False, True, True, False])
        mt = np.array([False, True, True, True, False])
        box = (pde._run(mt), pde._run(mx), pde._run(ml))
        v = u.values[box]
        w = grid.cell_volumes(dict(enumerate(box[1:])))
        assert np.array_equal(v, vals[mt][:, mx][:, :, ml])
        assert w.shape == (4, 2)
        assert w.sum() == pytest.approx(4 * 0.25 * 2 * 0.5)
        v_all = u.values[box[0], :, box[2]]
        assert v_all.shape == (3, 8, 2)

    def test_run_of_a_threshold_mask(self):
        c = np.linspace(-1.0, 1.0, 9)
        assert pde._run(np.abs(c) < 0.5) == slice(3, 6)
        assert pde._run(c >= -1.0) == slice(0, 9)
        assert pde._run(c > 0.9) == slice(8, 9)
        assert pde._run(c > 2.0) == slice(0, 0)
        assert c[pde._run(c > 2.0)].size == 0
        with pytest.raises(ValueError, match="not one run"):
            pde._run(np.abs(c) > 0.5)

    def test_boxed_march_stores_the_box_of_the_whole_march(self):
        # data on all four faces of a cylinder, nonzero at the corners: a
        # corner cell sums data from two faces, in the order of
        # lateral_faces, which the reference march below fixes bit for bit
        grid = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (9, 7),
                                     0.0, 0.5, 6)
        dom = LipschitzCylinder(base_box=((0.0, 1.0), (0.0, 1.0)), T=0.5)
        f = BoundaryData(
            lambda X, t: np.sin(7.0 * t) * np.exp(X[:, 0] - 0.3 * X[:, 1]))
        A = preset("trig", d=2)
        op = pde._assemble(A, dom, grid)
        mass, _, lu = pde._factor(op, grid.dt)
        whole = [np.zeros(grid.ncells)]
        for t in grid.times()[1:]:
            rhs = mass * whole[-1]
            for face in lateral_faces(grid, dom):
                g = op.groups[face.key]
                rhs[g.cells] += g.weights * f(face.points, t)
            whole.append(lu.solve(rhs, trans="T"))
        whole = np.reshape(whole, (grid.nt + 1,) + grid.shape)

        cells = (slice(2, 9), slice(0, 5))
        u = pde._solve_field(op, dom, f, grid, cells, np.zeros(grid.ncells))
        assert u.values.tobytes() == whole[(slice(None),) + cells].tobytes()
        assert solve_dirichlet(A, dom, f, grid).values.tobytes() \
            == whole.tobytes()
        assert u.grid.faces[0].tobytes() == grid.faces[0][2:10].tobytes()
        assert u.grid.faces[1].tobytes() == grid.faces[1][0:6].tobytes()
        assert u.grid.times().tobytes() == grid.times().tobytes()
        # the bottom trace is the bottom-face data on the box's cells
        pts = np.column_stack([grid.axis_centers(0), np.zeros(9)])
        bottom = np.array([f(pts, t) for t in grid.times()])
        assert u.bottom_trace.tobytes() == bottom[:, 2:9].tobytes()


class TestScalarField:
    def test_values_are_a_frozen_view_and_the_trace_a_copy(self):
        # a field is never copied: values shares the caller's memory
        # through a read-only view, and the caller's arrays stay writable
        grid = halfspace([-1.0], [1.0], 2.0, 0.0, 1.0, (8, 4), 4)
        vals, trace = np.zeros((5, 8, 4)), np.zeros((5, 8))
        u = ScalarField(grid, vals, trace)
        assert np.shares_memory(u.values, vals)
        assert not np.shares_memory(u.bottom_trace, trace)
        assert not (u.values.flags.writeable
                    or u.bottom_trace.flags.writeable)
        vals[0, 0, 0] = trace[0, 0] = 1.0
        assert u.values[0, 0, 0] == 1.0 and u.bottom_trace[0, 0] == 0.0

    def test_refused_input_stays_writable(self):
        grid = halfspace([-1.0], [1.0], 2.0, 0.0, 1.0, (8, 4), 4)
        vals, trace = np.zeros((5, 8, 4)), np.zeros((5, 8))
        with pytest.raises(ValueError, match="bottom trace shape"):
            ScalarField(grid, vals, np.zeros((5, 3)))
        bad = np.full((5, 8, 4), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(grid, bad, trace)
        vals[0, 0, 0] = bad[0, 0, 0] = trace[0, 0] = 1.0

    @staticmethod
    def _affine_field():
        # u = 4 t + 2 x - lam at every cell center of every level
        grid = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (4, 4),
                                     0.0, 1.0, 4)
        c = grid.centers() @ [2.0, -1.0]
        return ScalarField(grid, (4.0 * grid.times()[:, None] + c)
                           .reshape(5, 4, 4))

    def test_value_at_is_multilinear_and_holds_the_edge_cell(self):
        u = self._affine_field()
        for X, t in [([0.3, 0.7], 0.55), ([0.125, 0.875], 1.0),
                     ([0.6, 0.2], 0.0)]:
            assert u.value_at(X, t) == pytest.approx(
                4.0 * t + 2.0 * X[0] - X[1], abs=1e-14)
        # within half a cell of a face: the edge cell's value, no slope
        assert u.value_at([0.0, 1.0], 0.5) == pytest.approx(
            u.value_at([0.125, 0.875], 0.5), abs=1e-15)

    @pytest.mark.parametrize("X, t", [
        ([0.5, 0.5], 3.0), ([0.5, 0.5], 1.0 + 1e-9), ([0.5, 0.5], -0.1),
        ([1.5, 0.5], 0.5), ([0.5, -1e-9], 0.5), ([0.5, np.nan], 0.5),
        ([0.5], 0.5)])
    def test_value_at_refuses_points_outside_the_grid(self, X, t):
        match = "outside the grid" if len(X) == 2 else "1 coordinates"
        with pytest.raises(ValueError, match=match):
            self._affine_field().value_at(X, t)

    @pytest.mark.parametrize("cells, match", [
        ((slice(2, 5), slice(1, None)), "bottom lam layer"),
    ], ids=["off-bottom"])
    def test_recorded_window_must_be_a_sub_grid(self, cells, match):
        grid = small_grid(nx=8, nlam=4, nt=4)
        with pytest.raises(ValueError, match=match):
            pde._solve_field(pde._assemble(preset("constant", d=2), HALF, grid),
                             HALF, None, grid, cells, np.zeros(grid.ncells))


class TestQDifference:
    def test_periodic_field_annihilated(self):
        grid = halfspace(-1.0, 1.0, 4.0, 0.0, 1.0, (8, 64), 8)
        lam = grid.axis_centers(1)
        vals = np.broadcast_to(np.sin(2 * np.pi * lam),
                               (grid.nt + 1,) + grid.shape).copy()
        u = ScalarField(grid, vals)
        qu = q_difference(u, 1.0)
        assert np.abs(qu.values).max() <= 1e-12

    def test_linear_field_gives_period(self):
        grid = halfspace(-1.0, 1.0, 4.0, 0.0, 1.0, (8, 64), 8)
        lam = grid.axis_centers(1)
        vals = np.broadcast_to(lam, (grid.nt + 1,) + grid.shape).copy()
        u = ScalarField(grid, vals)
        qu = q_difference(u, 1.0)
        assert np.abs(qu.values - 1.0).max() <= 1e-12

    def test_difference_has_no_trace(self):
        # Qu's bottom layer is u(., lam + 1) - u, not the zero data of u's
        # solve, so the trace hypothesis cannot be checked on Qu
        grid = halfspace(-2.0, 2.0, 3.0, 0.0, 0.25, (16, 24), 8)
        u = solve_impulse(preset("laminate", d=2), HALF,
                          np.array([0.0, 1.0]), grid)
        qu = q_difference(u, 1.0)
        assert np.abs(qu.values[1:, :, 0]).max() > 0.1
        with pytest.raises(ValueError, match="no recorded bottom"):
            nt_trace_ratio(qu, ParabolicCube(np.zeros(1), 0.125, 0.125))

    def test_alignment_required(self):
        grid = halfspace(-1.0, 1.0, 4.0, 0.0, 1.0, (8, 64), 8)
        u = ScalarField(grid, np.zeros((9,) + grid.shape))
        with pytest.raises(ValueError):
            q_difference(u, 0.3)

    def test_graded_lam_axis_refused(self):
        # the uniformity rule of SpaceTimeGrid.h, the one every reader uses
        grid = SpaceTimeGrid(
            (np.linspace(-1.0, 1.0, 9),
             graded_axis([(0.0, 2.0, 0.0625)], 0.0, 4.0, 1.0)), 0.0, 1.0, 8)
        u = ScalarField(grid, np.zeros((9,) + grid.shape))
        with pytest.raises(ValueError, match="graded"):
            q_difference(u, 1.0)


class TestProbe:
    @staticmethod
    def dense(g, X):
        """The probe weights of X as one value per cell of g."""
        box, weights = pde._probe(g, X)
        P = np.zeros(g.shape)
        P[box] = weights
        return P.reshape(-1)

    def test_one_cell_axis(self):
        # the zero-weight upper neighbour of a one-cell axis lies past it
        g = SpaceTimeGrid.uniform((0.0, 0.0), (1.0, 1.0), (8, 1), 0.0, 1.0, 4)
        box, weights = pde._probe(g, [0.99, 0.5])
        assert box == (slice(6, 8), slice(0, 1)) and weights.shape == (2, 1)
        assert np.array_equal(self.dense(g, [0.99, 0.5]),
                              np.eye(8)[7])       # clipped to c[-1]
        assert np.array_equal(self.dense(g, [0.5, 0.2]),
                              0.5 * (np.eye(8)[3] + np.eye(8)[4]))

    def test_reproduces_affine_functions(self):
        g = SpaceTimeGrid(
            (graded_axis([(-1.0, 1.0, 0.25)], -3.0, 3.0, 4.0),
             np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 0.0, 4)), 0.0, 1.0, 4)
        probes = np.random.default_rng(3).uniform(
            [-2.5, 0.1, -0.8], [2.5, 0.9, -0.2], (7, 3))
        P = np.stack([self.dense(g, X) for X in probes], axis=1)
        assert np.abs(P.sum(axis=0) - 1.0).max() <= 1e-15
        affine = g.centers() @ np.array([0.7, -1.3, 2.1]) + 0.4
        assert np.abs(P.T @ affine - (probes @ [0.7, -1.3, 2.1] + 0.4)).max() \
            <= 1e-14


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        u = solve_dirichlet(preset("constant", d=2), HALF, bump_data(),
                            small_grid(nx=16, nlam=8, nt=8))
        path = str(tmp_path / "field.bin")
        save_field(u, path)
        v = load_field(path)
        assert np.array_equal(u.values, v.values)
        assert v.grid.shape == u.grid.shape
        assert all(np.array_equal(a, b)
                   for a, b in zip(v.grid.faces, u.grid.faces))
        assert (v.grid.t0, v.grid.t1) == (u.grid.t0, u.grid.t1)
        assert u.bottom_trace is not None and v.bottom_trace is None

    @pytest.mark.parametrize("corrupt", [
        # cut inside the header (d/nt words, face arrays) and the payload
        pytest.param(lambda data: data[:14], id="14"),
        pytest.param(lambda data: data[:60], id="60"),
        pytest.param(lambda data: data[:-8], id="-8"),
        # whole file, but nt or shape[1] set to 2**32 - 1: the header
        # promises terabytes, to be refused before anything is read
        pytest.param(lambda data: data[:12] + b"\xff" * 4 + data[16:],
                     id="nt"),
        pytest.param(lambda data: data[:20] + b"\xff" * 4 + data[24:],
                     id="shape"),
    ])
    def test_truncated_file_rejected(self, tmp_path, corrupt):
        u = solve_dirichlet(preset("constant", d=2), HALF, bump_data(),
                            small_grid(nx=16, nlam=8, nt=8))
        path = str(tmp_path / "field.bin")
        save_field(u, path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(corrupt(data))
        with pytest.raises(ValueError, match="truncated"):
            load_field(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a header that promises less than the file holds is corrupt too
        u = solve_dirichlet(preset("constant", d=2), HALF, bump_data(),
                            small_grid(nx=16, nlam=8, nt=8))
        path = tmp_path / "field.bin"
        save_field(u, str(path))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="trailing bytes"):
            load_field(str(path))

    def test_axisless_header_rejected(self, tmp_path):
        import struct

        path = tmp_path / "field.bin"
        path.write_bytes(b"PARAHOM1" + struct.pack("<2I", 0, 1)
                         + struct.pack("<2d", 0.0, 1.0)
                         + np.zeros(2, dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="at least one axis"):
            load_field(str(path))

    def test_impulse_pole_is_checked_before_assembly(self, monkeypatch):
        # a pole of the wrong dimension or a NaN one was cut to grid.d
        # coordinates, died with an IndexError or read as an edge cell; a
        # point of the wrong dimension is named as such, not as outside
        def no_assembly(*args):
            raise AssertionError("assembled for a bad pole")

        monkeypatch.setattr(pde, "_assemble", no_assembly)
        grid = halfspace(-2.0, 2.0, 2.0, 0.0, 0.5, (16, 8), 4)
        u = ScalarField(grid, np.zeros((grid.nt + 1,) + grid.shape))
        for pole, match in (([0.1, 0.9, 55.0], "has 3 coordinates.*d = 2"),
                            ([0.1], "has 1 coordinates.*d = 2"),
                            ([0.1, np.nan], "outside the grid")):
            with pytest.raises(ValueError, match=match):
                solve_impulse(preset("constant", d=2), HALF, np.array(pole),
                              grid)
            with pytest.raises(ValueError, match=match):
                u.value_at(pole, 0.25)

    def test_impulse_mass(self):
        grid = halfspace(-2.0, 2.0, 2.0, 0.0, 0.5, (32, 16), 16)
        u = solve_impulse(preset("constant", d=2), HALF,
                          np.array([0.0, 1.0]), grid)
        mass0 = (u.values[0] * grid.cell_volumes()).sum()
        assert mass0 == pytest.approx(1.0, rel=1e-12)
