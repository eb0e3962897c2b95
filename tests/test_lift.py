"""Group paths and curve lifting through the graph foliation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecomplete.algebra import AbelianGroup, MatrixGroup
from liecomplete.flow import COMPLETE, ESCAPED, IntegratorConfig
from liecomplete.lift import ExpSeg, GPath, LinearSeg, PathError, _turn, lift_path
from liecomplete.manifold import Domain, GAction, OutsideDomainError
from liecomplete.scenarios import build, circle_loop_path

from scenario_oracles import LiftEscapedError, concat_paths, equivariance_check, reverse_path

E_MINUS_2PI = 1.8674427317079893e-3  # exp(-2*pi)


@pytest.fixture(scope="module")
def helicoid():
    return build("example6_helicoid", {"alpha": 1.0}).action


@pytest.fixture(scope="module")
def affine():
    return build("affine_line").action


def _chord_path(group, start, points):
    """Abelian path whose lift's manifold projection runs through ``points``."""
    segs = [LinearSeg((b[0] - a[0], b[1] - a[1]), 1.0) for a, b in zip(points, points[1:])]
    return GPath(group, start, segs)


# ---------------------------------------------------------------------------
# GPath construction and its left-logarithmic derivative, GPath._velocities


def test_left_log_derivative_linear():
    G = AbelianGroup(2)
    p = GPath(G, (0.0, 0.0), [LinearSeg((2.0, 0.0), 1.0)])
    assert list(p._velocities[0]) == [2.0, 0.0]


def test_left_log_derivative_exp_rate(affine):
    p = GPath(affine.group, np.eye(2), [ExpSeg((0.5, -1.0), 1.0)])
    assert list(p._velocities[0]) == [0.5, -1.0]


def test_left_log_derivative_piecewise_and_boundary():
    G = AbelianGroup(1)
    p = GPath(G, (0.0,), [LinearSeg((1.0,), 1.0), LinearSeg((-3.0,), 1.0)])
    # widths are 1/2 each, so the clock-rate doubles the displacement
    assert p.widths == [0.5, 0.5]
    assert list(p._velocities[0]) == [2.0]
    assert list(p._velocities[1]) == [-6.0]


def test_reversed_segment_negates_derivative():
    G = AbelianGroup(2)
    p = GPath(G, (0.0, 0.0), [LinearSeg((2.0, -1.0), 1.0)])
    r = reverse_path(p)
    assert list(r._velocities[0]) == [-2.0, 1.0]
    assert np.allclose(r.endpoint(), (0.0, 0.0))


def test_path_validation():
    G = AbelianGroup(2)
    with pytest.raises(PathError, match="segment 1: duration"):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), LinearSeg((1.0, 0.0), 0.0)])
    with pytest.raises(PathError):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0,), 1.0)])
    with pytest.raises(PathError):
        GPath(G, (0.0, 0.0), [LinearSeg((math.nan, 0.0), 1.0)])
    with pytest.raises(PathError):
        GPath(G, (0.0,), [LinearSeg((1.0, 0.0), 1.0)])
    with pytest.raises(PathError, match="unknown segment type tuple"):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), (1.0, 0.0)])
    # finite velocities, but the group point after the segment overflows
    with pytest.raises(PathError, match="group points are not finite"):
        GPath(G, (1e308, 0.0), [LinearSeg((1e308, 0.0), 1.0)])


@pytest.mark.parametrize("durations", [
    [1e308, 1e308],   # the total overflows, so every share of the clock is 0
    [1e-320, 1.0],    # a share of 1e-320 gives the velocity 1 / 1e-320, which overflows
    [1e-320, 1e10],   # a share that underflows to 0
], ids=["total", "velocity", "share"])
def test_durations_that_leave_a_velocity_not_finite_are_a_path_error(durations):
    with pytest.raises(PathError):
        GPath(AbelianGroup(2), (0.0, 0.0), [LinearSeg((1.0, 0.0), dur) for dur in durations])


@pytest.mark.parametrize("segs", [
    [ExpSeg((1e300, 1e300), 1.0)],      # exp(-1e300) underflows: a singular point
    [ExpSeg((0.0, -800.0), 1.0)],       # exp(800) overflows
    [ExpSeg((0.0, 746.0), 1.0)],        # exp(-746) underflows to zero
    [ExpSeg((0.0, -600.0), 1.0)] * 2,   # each factor is finite, their product is not
    [ExpSeg((1e300, 0.0), 1e300)],      # the exponent duration * X overflows
    [LinearSeg((1e308, 0.0), 1.0)] * 2,  # an abelian sum overflows
], ids=["singular", "overflow", "underflow", "product", "exponent", "abelian"])
def test_non_finite_group_points_are_a_path_error(affine, segs):
    group = AbelianGroup(2) if isinstance(segs[0], LinearSeg) else affine.group
    with pytest.raises(PathError):
        GPath(group, group.identity(), segs)


def test_linear_segment_needs_abelian_model(affine):
    with pytest.raises(PathError):
        GPath(affine.group, np.eye(2), [LinearSeg((1.0, 0.0), 1.0)])


def test_durations_are_clock_weights_only():
    G = AbelianGroup(2)
    a = GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), LinearSeg((0.0, 1.0), 1.0)])
    b = GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 5.0), LinearSeg((0.0, 1.0), 1.0)])
    assert np.allclose(a.endpoint(), b.endpoint())


def test_exp_path_endpoint_matrix(affine):
    p = GPath(affine.group, np.eye(2), [ExpSeg((1.0, 0.0), 2.0)])
    assert np.allclose(p.endpoint(), [[1.0, 2.0], [0.0, 1.0]], atol=1e-14)


@pytest.mark.parametrize("word, status", [
    ([((1.0, 0.0), 0.5), ((0.3, 0.7), 0.0), ((0.0, 1.0), -0.3)], COMPLETE),
    ([((0.0, 1.0), -0.1), ((0.3, 0.7), 0.0), ((1.0, 0.0), -2.0)], ESCAPED),
], ids=["complete", "escaped"])
def test_word_path_drops_zero_stages(helicoid, word, status):
    G, x0 = helicoid.group, (1.0, 0.1, 0.7)
    path = GPath.word(G, word)
    assert path.n_segments == 2
    res = lift_path(helicoid, path, x0)
    bare = lift_path(helicoid, GPath.word(G, [word[0], word[2]]), x0)
    assert res.status == status
    assert res.failed_segment == (None if status == COMPLETE else 1)

    def bits(r):
        return repr((r.status, r.endpoint_g, r.endpoint_m, r.rows, r.escape_time,
                     r.failed_segment, r.winding, r.low_confidence, r.steps))

    assert bits(res) == bits(bare)


def test_word_path_negative_stage_time_negates_the_rate(helicoid, affine):
    for G in (helicoid.group, affine.group):
        path = GPath.word(G, [((0.25, -0.5), -0.75)])
        (seg,) = path.segments
        assert isinstance(seg, ExpSeg)
        assert seg.X == (-0.25, 0.5) and seg.duration == 0.75
        assert np.allclose(path.endpoint(), G.exp_segment((0.25, -0.5), -0.75), atol=1e-15)


def test_concat_requires_matching_endpoint():
    G = AbelianGroup(2)
    a = GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0)])
    b = GPath(G, (5.0, 5.0), [LinearSeg((1.0, 0.0), 1.0)])
    with pytest.raises(PathError):
        concat_paths(a, b)


def test_concat_requires_one_group_model(affine):
    p1 = GPath(affine.group, np.eye(2), [ExpSeg((1.0, 0.0), 1.0)])
    # the same exponent through T/2 ends at [[1, 1.5], [0, 1]], not at [[1, 1], [0, 1]]
    half_t = MatrixGroup(np.array([[[0.0, 0.5], [0.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]))
    wide = MatrixGroup(np.zeros((2, 3, 3)))
    for G, start in ((half_t, p1.endpoint()), (wide, np.eye(3)), (AbelianGroup(2), (0.0, 0.0))):
        with pytest.raises(PathError):
            concat_paths(p1, GPath(G, start, [ExpSeg((1.0, 0.0), 1.0)]))
        with pytest.raises(PathError):
            lift_path(affine, GPath(G, start, []), (1.0,))


@pytest.mark.parametrize("nudge", ["scaled", "one_entry"])
def test_a_basis_that_differs_in_any_bit_is_another_group_model(affine, nudge):
    basis = np.array(affine.group.basis)
    if nudge == "scaled":
        basis = basis * (1.0 + 1e-7)
    else:
        basis[0][basis[0] != 0.0] = 1.000001
    other = MatrixGroup(basis)
    assert other != affine.group
    with pytest.raises(PathError, match="different matrix bases"):
        lift_path(affine, GPath(other, np.eye(2), [ExpSeg((1.0, 0.0), 1.0)]), (1.0,))
    with pytest.raises(PathError, match="different matrix bases"):
        concat_paths(GPath(affine.group, np.eye(2), []), GPath(other, np.eye(2), []))


def test_from_m_projection():
    G = AbelianGroup(2)
    pts = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    p = _chord_path(G, (0.0, 0.0), pts)
    assert p.n_segments == 2
    assert p.widths == [0.5, 0.5]
    assert np.allclose(p.endpoint(), (-1.0, 1.0))


# ---------------------------------------------------------------------------
# lifting oracles


def test_unit_loop_scales_z(helicoid):
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=1024)
    res = lift_path(helicoid, path, (1.0, 0.0, 1.0))
    assert res.status == COMPLETE
    assert res.endpoint_m[2] == pytest.approx(E_MINUS_2PI, rel=1e-7)
    assert res.winding == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.endpoint_g, path.endpoint())


def test_an_exact_half_turn_at_the_depth_cap_folds_to_plus_pi():
    # from angle pi/2 to -pi/2: the jump -pi folds to +pi, and at depth 24
    # it is not split, so the interpolant is never read
    assert _turn(None, 0.0, math.pi / 2, 1.0, -math.pi / 2, 0.0, 24) == math.pi


def test_translate_preserves_z(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0)])
    res = lift_path(helicoid, p, (1.0, 0.0, 0.7))
    assert res.status == COMPLETE
    assert np.allclose(res.endpoint_m, (2.0, 0.0, 0.7), atol=1e-9)
    assert res.winding == pytest.approx(0.0, abs=1e-12)


def test_radial_path_escapes(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((-1.0, 0.0), 1.0)])
    res = lift_path(helicoid, p, (1.0, 0.0, 0.7))
    assert res.status == ESCAPED
    assert abs(res.escape_time - 1.0) < 1e-3
    assert res.failed_segment == 0
    assert not res.low_confidence
    assert all(helicoid.margin(m) > 0.0 for (_, _, m) in res.trace)


@pytest.mark.parametrize("model", ["abelian", "matrix"])
def test_escape_endpoint_is_the_group_point_at_the_escape_time(helicoid, affine, model):
    # one segment over the whole clock: the escape is escape_time of the way through it
    if model == "abelian":
        action, x0 = helicoid, (1.0, 0.0, 0.7)
        path = GPath(action.group, (0.25, -0.5), [LinearSeg((-2.0, 0.0))])
    else:
        action = GAction(affine.group, Domain(("x",), box=((0.5, None),)), affine.fields)
        x0 = (1.0,)
        path = GPath(action.group, [[2.0, 0.3], [0.0, 1.0]], [ExpSeg((-1.5, 0.7))])
    res = lift_path(action, path, x0)
    assert res.status == ESCAPED and 0.0 < res.escape_time < 1.0
    G = action.group
    expected = G.mul(path._prefix[0], G.exp_segment(path._vecs[0], res.escape_time))
    assert np.asarray(res.endpoint_g).tobytes() == np.asarray(expected).tobytes()


def test_lift_from_a_non_finite_point_is_outside(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((-1.0, 0.0), 1.0)])
    with pytest.raises(OutsideDomainError):
        lift_path(helicoid, p, (math.nan, 0.5, 1.0))


@pytest.mark.parametrize("p0, delta, z0", [
    ((0.6038016875016081, -0.014700227670238753),
     (-1.2620306587761094, 0.03603847492043055), -0.6133569409259095),
    ((-0.5504483282054216, -0.11653915928266573),
     (1.1391179718088444, 0.24177971210892368), -1.8633619103242625),
])
def test_line_grazing_the_axis_keeps_the_winding_law(helicoid, p0, delta, z0):
    # recorded lines passing 2.5e-3 and 2.9e-4 from the axis: one step over
    # the whole line used to be accepted and end "complete" with z far off
    p1 = (p0[0] + delta[0], p0[1] + delta[1])
    dtheta = math.atan2(p0[0] * p1[1] - p0[1] * p1[0], p0[0] * p1[0] + p0[1] * p1[1])
    path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)])
    res = lift_path(helicoid, path, (p0[0], p0[1], z0))
    assert res.status == COMPLETE
    assert res.endpoint_m[2] == pytest.approx(z0 * math.exp(-dtheta), rel=1e-6)


@pytest.mark.parametrize("p0, delta, z0", [
    ((-1.2379280839727, 0.5543466061491021),
     (2.452852309607656, -1.0982667656343352), 0.7197164026783031),
    ((-1.0734176733945129, -0.059260714754143046),
     (2.3350288241458355, 0.12877073294199903), 1.7221569192366772),
])
def test_margin_dip_ends_the_step(helicoid, p0, delta, z0):
    # lines passing 5.8e-5 and 6.4e-5 from the axis at a loose tolerance: the
    # steps grow past the pass, so only retrying a step whose margin dips well
    # below both of its ends keeps z right (it was off by 96 % and 2200 %)
    p1 = (p0[0] + delta[0], p0[1] + delta[1])
    dtheta = math.atan2(p0[0] * p1[1] - p0[1] * p1[0], p0[0] * p1[0] + p0[1] * p1[1])
    path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)])
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
    res = lift_path(helicoid, path, (p0[0], p0[1], z0), cfg)
    assert res.status == COMPLETE
    assert res.endpoint_m[2] == pytest.approx(z0 * math.exp(-dtheta), rel=1e-4)


def test_clockwise_loop_grows_z(helicoid):
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=1024, clockwise=True)
    res = lift_path(helicoid, path, (1.0, 0.0, 1.0))
    assert res.status == COMPLETE
    assert res.endpoint_m[2] == pytest.approx(1.0 / E_MINUS_2PI, rel=1e-7)
    assert res.winding == pytest.approx(-1.0, abs=1e-9)


def test_a_velocity_past_the_first_step_norm_range_completes():
    # (1e150 / (atol + rtol * 0))**2 overflows a float in the first-step norm
    action = build("translation_rn", {"n": 1}).action
    res = lift_path(action, GPath(action.group, (0.0,), [LinearSeg((1e150,), 1.0)]), (0.0,))
    assert res.status == COMPLETE
    assert res.endpoint_m[0] == pytest.approx(1e150, rel=1e-12)


def test_empty_path_is_identity(helicoid):
    p = GPath(helicoid.group, (0.4, -0.2), [])
    res = lift_path(helicoid, p, (1.0, 0.0, 0.5))
    assert res.status == COMPLETE
    assert res.endpoint_m == (1.0, 0.0, 0.5)
    assert np.allclose(res.endpoint_g, (0.4, -0.2))


def test_trace_is_dense_for_few_segments(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0)])
    res = lift_path(helicoid, p, (1.0, 0.0, 0.7))
    assert len(res.trace) >= 64
    # group points interpolate the segment: halfway row is halfway along g
    mid = min(res.trace, key=lambda row: abs(row[0] - 0.5))
    assert np.allclose(mid[1], (0.5, 0.0), atol=0.02)


def test_matrix_model_lift(affine):
    # dilation flow: c(t) = exp(t*D) lifts x0 = 1 to e^t
    p = GPath(affine.group, np.eye(2), [ExpSeg((0.0, 1.0), 1.0)])
    res = lift_path(affine, p, (1.0,))
    assert res.status == COMPLETE
    assert res.endpoint_m[0] == pytest.approx(math.e, rel=1e-8)
    assert np.allclose(res.endpoint_g, [[1.0 / math.e, 0.0], [0.0, 1.0]], atol=1e-12)


def test_trace_group_points_are_computed_on_first_read(affine, monkeypatch):
    from liecomplete.algebra import MatrixGroup

    calls = []
    expm = MatrixGroup.exp_segment
    monkeypatch.setattr(MatrixGroup, "exp_segment",
                        lambda self, X, t=1.0: calls.append(np.shape(X)) or expm(self, X, t))
    p = GPath(affine.group, np.eye(2), [ExpSeg((0.3, 1.0), 1.0), ExpSeg((-0.5, 0.2), 2.0)])
    assert calls == [(2, 2)]        # the path's own prefix points, one stacked call
    res = lift_path(affine, p, (1.0,))
    assert res.status == COMPLETE and len(res.rows) > 2
    assert len(calls) == 1
    trace = res.trace
    assert calls == [(2, 2), (len(res.rows) - 1, 2)]   # one stacked call for every row
    assert res.trace is trace
    assert len(calls) == 2
    assert [(t, m) for (t, _, m) in trace] == [(t, m) for (t, _, _, m) in res.rows]


# ---------------------------------------------------------------------------
# homotopy: equal endpoints + equal winding => equal lift endpoints


def test_square_loop_matches_circle_loop(helicoid):
    circle = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=4096)
    corners = [(1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 0.0)]
    square = _chord_path(helicoid.group, (0.0, 0.0), corners)
    a = lift_path(helicoid, circle, (1.0, 0.0, 1.0))
    b = lift_path(helicoid, square, (1.0, 0.0, 1.0))
    assert a.status == b.status == COMPLETE
    assert a.winding == pytest.approx(b.winding, abs=1e-9)
    assert np.max(np.abs(np.asarray(a.endpoint_m) - b.endpoint_m)) < 1e-6


# ---------------------------------------------------------------------------
# one path lifted from several probes


def test_lift_identity_path_per_probe(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [])
    for probe in [(1.0, 0.0, 1.0), (2.0, 1.0, -0.5)]:
        res = lift_path(helicoid, p, probe)
        assert res.status == COMPLETE
        assert np.allclose(res.endpoint_m, probe)


def test_full_loop_scales_z_per_probe(helicoid):
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=1024)
    for probe in [(1.0, 0.0, 1.0), (1.0, 0.0, -2.0)]:
        res = lift_path(helicoid, path, probe)
        assert res.status == COMPLETE
        assert res.endpoint_m[2] == pytest.approx(probe[2] * E_MINUS_2PI, rel=1e-6)
        assert np.allclose(res.endpoint_m[:2], probe[:2], atol=1e-9)


def test_lift_records_per_probe_escape(helicoid):
    # translated to start at (3,0) the projection circle misses the axis;
    # translated to start at (2,0) it passes through it
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=256)
    missed, hit = (lift_path(helicoid, path, p) for p in [(3.0, 0.0, 1.0), (2.0, 0.0, 1.0)])
    assert missed.status == COMPLETE
    assert missed.endpoint_m[2] == pytest.approx(1.0, rel=1e-6)  # winding 0
    assert hit.status == ESCAPED


# ---------------------------------------------------------------------------
# equivariance


def test_equivariance_abelian(helicoid):
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=0.5, chords_per_turn=128)
    res = equivariance_check(helicoid, path, (1.0, 0.0, 1.0), (0.3, -0.8))
    assert res < 1e-9


def test_equivariance_matrix(affine):
    p = GPath(affine.group, np.eye(2), [ExpSeg((0.4, 0.7), 1.0), ExpSeg((-0.2, 0.1), 1.0)])
    g = affine.group.exp_segment((0.5, -0.3), 1.0)
    res = equivariance_check(affine, p, (1.0,), g)
    assert res < 1e-8


def test_equivariance_identity_is_zero(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((0.5, 0.5), 1.0)])
    res = equivariance_check(helicoid, p, (1.0, 0.0, 1.0), (0.0, 0.0))
    assert res == 0.0


def test_equivariance_raises_on_escape(helicoid):
    p = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((-1.0, 0.0), 1.0)])
    with pytest.raises(LiftEscapedError):
        equivariance_check(helicoid, p, (1.0, 0.0, 1.0), (0.1, 0.1))


# ---------------------------------------------------------------------------
# reparametrization / concatenation properties


_seg_vec = st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))


@settings(max_examples=30, deadline=None)
@given(vecs=st.lists(_seg_vec, min_size=1, max_size=3), lam=st.floats(0.2, 0.8))
def test_reparametrization_invariance(vecs, lam):
    action = build("example6_helicoid", {"alpha": 1.0}).action
    x0 = (3.0, 3.0, 0.5)
    segs = [LinearSeg(v, 1.0) for v in vecs]
    base = lift_path(action, GPath(action.group, (0.0, 0.0), segs), x0)
    # split the first segment into two pieces with the same total displacement
    v = np.asarray(vecs[0])
    split = [
        LinearSeg(tuple(lam * v), lam),
        LinearSeg(tuple((1 - lam) * v), 1 - lam),
    ] + segs[1:]
    alt = lift_path(action, GPath(action.group, (0.0, 0.0), split), x0)
    if base.status != COMPLETE or alt.status != COMPLETE:
        return
    assert np.max(np.abs(np.asarray(base.endpoint_m) - alt.endpoint_m)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(v1=_seg_vec, v2=_seg_vec)
def test_concatenation(v1, v2):
    action = build("example6_helicoid", {"alpha": 1.0}).action
    x0 = (3.0, 3.0, 0.5)
    G = action.group
    p1 = GPath(G, (0.0, 0.0), [LinearSeg(v1, 1.0)])
    p2 = GPath(G, tuple(v1), [LinearSeg(v2, 1.0)])
    r1 = lift_path(action, p1, x0)
    if r1.status != COMPLETE:
        return
    r2 = lift_path(action, p2, r1.endpoint_m)
    joined = lift_path(action, concat_paths(p1, p2), x0)
    if r2.status != COMPLETE or joined.status != COMPLETE:
        return
    assert np.max(np.abs(np.asarray(joined.endpoint_m) - r2.endpoint_m)) < 1e-8


def test_concat_exp_segments_keeps_endpoint(affine):
    G = affine.group
    p1 = GPath(G, np.eye(2), [ExpSeg((0.3, 0.5), 2.0)])
    p2 = GPath(G, p1.endpoint(), [ExpSeg((-0.1, 0.2), 0.5)])
    joined = concat_paths(p1, p2)
    assert np.max(np.abs(joined.endpoint() - G.mul(p1.endpoint(), G.exp_segment((-0.1, 0.2), 0.5)))) < 1e-12
