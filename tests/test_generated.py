"""Hot-path code against the loops it replaces.

The rhs contraction, the domain margin, the Dormand-Prince step and its
Hermite interpolant are generated as straight-line Python; group paths and
the loop decompositions of ``loop_to_group`` are built from whole arrays.  The loop forms they replaced are kept here as
references; the new code must give the same floats bit for bit (compared
through ``float.hex``, so signed zeros and NaNs count too), because it does
the same operations in the same order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecomplete.algebra import AbelianGroup
from liecomplete.completion import (
    _GL2_OFFSET, _MAGNUS4, FRAME_CONDITION_LIMIT, ORBIT_RESIDUAL_REL, FrameConditionError,
    LoopGeometryError, LoopOutsideOrbitError, loop_to_group,
)
from liecomplete.expr import compile_scalars, parse
from liecomplete.flow import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7, _MARGIN_ERRORS, _dp5_kernels,
)
from liecomplete.lift import ExpSeg, GPath, LinearSeg, PathError, _resolve, lift_path
from liecomplete.manifold import Domain, GAction
from liecomplete.scenarios import build, circle_loop_path

SCENARIOS = [
    ("translation_rn", {"n": 1}),
    ("translation_rn", {"n": 2}),
    ("translation_rn", {"n": 3}),
    ("example4_annulus", {}),
    ("example6_helicoid", {}),
    ("affine_line", {}),
]
IDS = ["translation1", "translation2", "translation3", "annulus", "helicoid", "affine"]

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coefficient = st.one_of(st.just(0.0), st.just(1.0), finite)
step_size = st.floats(min_value=1e-8, max_value=2.0)


def _bits(values):
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# the loop forms


def loop_rhs(action, X):
    """y -> sum_i X_i zeta_i(y), accumulated row by row into a zeroed list."""
    d, n = action.dim_algebra, action.dim_manifold
    coeffs = [float(v) for v in X]
    field_fn = compile_scalars(
        [e for row in action.fields for e in row], action.domain.coords, action.params
    )

    def f(y):
        flat = field_fn(*y)
        out = [0.0] * n
        for i in range(d):
            ci = coeffs[i]
            if ci != 0.0:
                base = i * n
                for j in range(n):
                    out[j] += ci * flat[base + j]
        return out

    return f


def loop_margin(domain, params):
    """min(margins, box distances) as one positional function."""
    exprs = list(domain.margins)
    compiled = compile_scalars(exprs, domain.coords, params) if exprs else None
    box = domain.box

    def margin(*vals):
        m = math.inf
        if compiled is not None:
            try:
                for v in compiled(*vals):
                    if v < m:
                        m = v
            except (ValueError, ZeroDivisionError, OverflowError):
                return -math.inf
        if box is not None:
            for x, b in zip(vals, box):
                if b is None:
                    continue
                lo, hi = b
                if lo is not None and x - lo < m:
                    m = x - lo
                if hi is not None and hi - x < m:
                    m = hi - x
        return m

    return margin


def loop_step(rhs, y, f0, h, atol, rtol):
    """One DP5 step with list-comprehension stages: (y1, k7, err) or None."""
    n = len(y)
    try:
        k2 = rhs([y[i] + h * _A21 * f0[i] for i in range(n)])
        k3 = rhs([y[i] + h * (_A31 * f0[i] + _A32 * k2[i]) for i in range(n)])
        k4 = rhs([y[i] + h * (_A41 * f0[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n)])
        k5 = rhs([
            y[i] + h * (_A51 * f0[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
            for i in range(n)
        ])
        k6 = rhs([
            y[i]
            + h * (_A61 * f0[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
            for i in range(n)
        ])
        y1 = [
            y[i] + h * (_B1 * f0[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
            for i in range(n)
        ]
        k7 = rhs(y1)
        err = 0.0
        for i in range(n):
            e = h * (
                _E1 * f0[i] + _E3 * k3[i] + _E4 * k4[i]
                + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i]
            )
            sc = atol + rtol * max(abs(y[i]), abs(y1[i]))
            e = e / sc
            err += e * e
        err = math.sqrt(err / n)
        if not math.isfinite(err) or any(not math.isfinite(v) for v in y1):
            return None
    except _MARGIN_ERRORS:
        return None
    return y1, k7, err


def loop_hermite(y0, f0, y1, f1, h):
    """Cubic Hermite interpolant of one step; s runs over [0, 1]."""

    def interp(s):
        s2 = s * s
        a = s2 * (2.0 * s - 3.0) + 1.0
        b = h * (s2 * (s - 2.0) + s)
        c = s2 * (3.0 - 2.0 * s)
        d = h * s2 * (s - 1.0)
        return [
            a * y0[i] + b * f0[i] + c * y1[i] + d * f1[i]
            for i in range(len(y0))
        ]

    return interp


# ---------------------------------------------------------------------------
# helpers


@pytest.fixture(scope="module", params=SCENARIOS, ids=IDS)
def action(request):
    name, params = request.param
    return build(name, params).action


def _inside(action, data):
    """A point of the action's domain with margin above 1e-3."""
    point = data.draw(st.lists(finite, min_size=action.dim_manifold,
                               max_size=action.dim_manifold))
    box = action.domain.box or (None,) * action.dim_manifold
    for j, b in enumerate(box):
        if b is not None:
            lo, hi = b
            point[j] = lo + (hi - lo) * (0.05 + 0.9 * abs(math.sin(point[j])))
    if action.margin(point) <= 1e-3:
        point[0] += 1.0
    return point


def _assert_same_step(new, ref):
    if ref is None:
        assert new is None
        return
    y1, k7, err = new
    assert (_bits(y1), _bits(k7), err.hex()) == (_bits(ref[0]), _bits(ref[1]), ref[2].hex())


# ---------------------------------------------------------------------------
# the built-in scenarios


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rhs_matches_the_loop(action, data):
    X = data.draw(st.lists(coefficient, min_size=action.dim_algebra,
                           max_size=action.dim_algebra))
    y = _inside(action, data)
    assert _bits(action.rhs(X)(y)) == _bits(loop_rhs(action, X)(y))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_margin_matches_the_loop(action, data):
    p = data.draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                           min_size=action.dim_manifold, max_size=action.dim_manifold))
    ref = loop_margin(action.domain, action.params)
    assert _bits([action._margin(p)]) == _bits([ref(*p)])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), h=step_size,
       atol=st.floats(min_value=1e-14, max_value=1e-3),
       rtol=st.floats(min_value=1e-12, max_value=1e-3))
def test_dp5_step_matches_the_loop(action, data, h, atol, rtol):
    X = data.draw(st.lists(coefficient, min_size=action.dim_algebra,
                           max_size=action.dim_algebra))
    y = _inside(action, data)
    rhs = action.rhs(X)
    f0 = rhs(y)
    step, hermite = _dp5_kernels(len(y))
    new = step(rhs, y, f0, h, atol, rtol)
    _assert_same_step(new, loop_step(rhs, y, f0, h, atol, rtol))
    if new is not None:
        y1, k7, _ = new
        for s in (0.0, 0.25, 0.5, 0.75, 1.0, data.draw(st.floats(0.0, 1.0))):
            assert _bits(hermite(y, f0, y1, k7, h)(s)) == _bits(loop_hermite(y, f0, y1, k7, h)(s))


def test_helicoid_margin_on_the_axis_and_box_walls():
    helicoid = build("example6_helicoid").action
    annulus = build("example4_annulus").action
    assert helicoid._margin([0.0, 0.0, 1.0]) == 0.0
    ref = loop_margin(annulus.domain, annulus.params)
    for p in ([0.5, 0.0], [2.0, 1.0], [1.0, 2.0 * math.pi], [0.1, -7.0], [3.0, 9.0]):
        assert _bits([annulus._margin(p)]) == _bits([ref(*p)])


# ---------------------------------------------------------------------------
# margins that raise or give NaN, any n


def _odd_action():
    coords = ("x", "y", "z")
    domain = Domain(
        coords,
        box=((-2.0, None), None, (None, 4.0)),
        margins=(parse("log(x) + 3"), parse("sqrt(y + 9)"), parse("x*x*x - x*x*x + 1"),
                 parse("1/z + k")),
    )
    fields = [[parse("x*y"), parse("0"), parse("1")], [parse("-1"), parse("z/x"), parse("k")]]
    return GAction(AbelianGroup(2), domain, fields, params={"k": -2.5})


@settings(max_examples=150, deadline=None)
@given(p=st.lists(st.one_of(st.just(0.0), st.just(1e120), st.just(-1e120),
                            st.floats(min_value=-20.0, max_value=20.0)),
                  min_size=3, max_size=3))
def test_margin_errors_and_nan_match_the_loop(p):
    action = _odd_action()
    ref = loop_margin(action.domain, action.params)
    assert _bits([action._margin(p)]) == _bits([ref(*p)])


@settings(max_examples=60, deadline=None)
@given(X=st.lists(coefficient, min_size=2, max_size=2),
       y=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=3, max_size=3))
def test_rhs_with_literal_zero_and_minus_one_entries(X, y):
    action = _odd_action()
    assert _bits(action.rhs(X)(y)) == _bits(loop_rhs(action, X)(y))


def _stiff_rhs(y):
    # raises at y[-1] == 0 and overflows for large states
    return [math.sin(v) * y[0] * 1e3 - 1.0 / y[-1] + v * v * v for v in y]


@settings(max_examples=80, deadline=None)
@given(y=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=5),
       h=step_size)
def test_dp5_step_matches_the_loop_for_any_n(y, h):
    try:
        f0 = _stiff_rhs(y)
    except ZeroDivisionError:
        return
    step, hermite = _dp5_kernels(len(y))
    new = step(_stiff_rhs, y, f0, h, 1e-12, 1e-9)
    _assert_same_step(new, loop_step(_stiff_rhs, y, f0, h, 1e-12, 1e-9))
    if new is not None:
        y1, k7, _ = new
        assert _bits(hermite(y, f0, y1, k7, h)(0.3)) == _bits(loop_hermite(y, f0, y1, k7, h)(0.3))


# ---------------------------------------------------------------------------
# group paths


def loop_circle_chords(x0_plane, turns, chords_per_turn, clockwise):
    """The chord displacements of circle_loop_path, one numpy point per chord."""
    x0_plane = np.asarray(x0_plane, dtype=float)
    radius = float(np.hypot(x0_plane[0], x0_plane[1]))
    theta0 = math.atan2(x0_plane[1], x0_plane[0])
    n = max(1, int(round(chords_per_turn * turns)))
    sweep = 2.0 * math.pi * turns * (-1.0 if clockwise else 1.0)
    out = []
    prev = x0_plane
    for k in range(1, n + 1):
        th = theta0 + sweep * k / n
        pt = np.array([radius * math.cos(th), radius * math.sin(th)])
        out.append(tuple(pt - prev))
        prev = pt
    return out


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0), turns=st.floats(0.01, 2.0),
       chords=st.integers(1, 300), clockwise=st.booleans())
def test_circle_chords_match_the_loop(x, y, turns, chords, clockwise):
    path = circle_loop_path((0.5, -0.5), (x, y), turns, chords, clockwise)
    got = [s.delta for s in path.segments]
    ref = loop_circle_chords((x, y), turns, chords, clockwise)
    assert [_bits(d) for d in got] == [_bits(d) for d in ref]


def _fraction_rows(data, count):
    """Trace rows ``(t, k, frac, m)``: row 0, then two drawn fractions per segment."""
    return [(0.0, 0, 0.0, ())] + [
        (0.5, k, data.draw(st.floats(0.0, 1.0)), ()) for k in range(count) for _ in range(2)
    ]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), count=st.integers(0, 12))
def test_abelian_path_points_match_the_loop(data, d, count):
    G = AbelianGroup(d)
    start = data.draw(st.lists(finite, min_size=d, max_size=d))
    segs = []
    for _ in range(count):
        vec = tuple(data.draw(st.lists(finite, min_size=d, max_size=d)))
        duration = data.draw(st.floats(0.1, 3.0))
        segs.append(data.draw(st.sampled_from([LinearSeg(vec, duration), ExpSeg(vec, duration)])))
    path = GPath(G, start, segs)
    # prefix points: one group multiplication per segment, in order
    g = np.asarray(start, dtype=float)
    for k, s in enumerate(segs):
        assert _bits(path._prefix[k]) == _bits(g)
        total = (np.asarray(s.delta, dtype=float) if isinstance(s, LinearSeg)
                 else np.asarray(s.X, dtype=float) * float(s.duration))
        g = G.mul(g, total)
    assert _bits(path.endpoint()) == _bits(g)
    # trace rows resolved together equal base + frac * vec row by row
    rows = _fraction_rows(data, count)
    resolved = _resolve(path, rows)
    assert _bits(resolved[0][1]) == _bits(path.start)
    for (_, k, frac, _), (_, g_row, _) in zip(rows[1:], resolved[1:]):
        assert _bits(g_row) == _bits(path._prefix[k] + frac * path._vecs[k])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), count=st.integers(0, 12))
def test_matrix_path_points_match_the_loop(data, count):
    G = build("affine_line").action.group
    segs = [ExpSeg(tuple(data.draw(st.lists(finite, min_size=2, max_size=2))),
                   data.draw(st.floats(0.1, 3.0))) for _ in range(count)]
    path = GPath(G, np.eye(2), segs)
    # prefix points: one exponential and one multiplication per segment, in order
    g = np.eye(2)
    for k, s in enumerate(segs):
        assert _bits(path._prefix[k].ravel()) == _bits(g.ravel())
        g = G.mul(g, G.exp_segment(np.asarray(s.X, dtype=float) * float(s.duration), 1.0))
    assert _bits(path.endpoint().ravel()) == _bits(g.ravel())
    # trace rows resolved in one stacked exponential equal one exponential per row
    rows = _fraction_rows(data, count)
    resolved = _resolve(path, rows)
    for (_, k, frac, _), (_, g_row, _) in zip(rows[1:], resolved[1:]):
        ref = path._prefix[k] @ G.exp_segment(path._vecs[k], frac)
        assert _bits(g_row.ravel()) == _bits(ref.ravel())


def test_ragged_segments_are_a_path_error():
    G = AbelianGroup(2)
    with pytest.raises(PathError):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), LinearSeg((1.0,), 1.0)])
    with pytest.raises(PathError):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), LinearSeg(((1.0, 2.0), 0.0), 1.0)])


# ---------------------------------------------------------------------------
# loop_to_group


def loop_velocity_at(action, frame, point, cdot):
    """One node's frame decomposition: its own SVD and checks, as the node loop did."""
    if action.margin(point) <= 0.0:
        raise LoopGeometryError(f"loop leaves the domain near {list(point)}")
    St = (frame @ action.field_matrix(point)).T
    U, sv, Vt = np.linalg.svd(St, full_matrices=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > FRAME_CONDITION_LIMIT:
        raise FrameConditionError("frame is ill-conditioned on the loop")
    f = Vt.T @ ((U.T @ cdot) / sv)
    res = float(np.linalg.norm(St @ f - cdot))
    if res > ORBIT_RESIDUAL_REL * float(np.linalg.norm(cdot)) + 1e-14:
        raise LoopOutsideOrbitError("loop velocity leaves the frame span")
    return f @ frame


def loop_sub_chords(action, frame, pts, substeps):
    """The (rate, duration) of every sub-chord, one chord and one node at a time."""
    frame = np.asarray(frame, dtype=float)
    pts = np.asarray(pts, dtype=float)
    n_chords = len(pts) - 1
    dt = 1.0 / (n_chords * substeps)
    out = []
    for j in range(n_chords):
        p0, p1 = pts[j], pts[j + 1]
        cdot = (p1 - p0) * n_chords
        for s in range(substeps):
            mid = (s + 0.5) / substeps
            lo = p0 + (mid - _GL2_OFFSET / substeps) * (p1 - p0)
            hi = p0 + (mid + _GL2_OFFSET / substeps) * (p1 - p0)
            X_lo = loop_velocity_at(action, frame, lo, cdot)
            X_hi = loop_velocity_at(action, frame, hi, cdot)
            rate = 0.5 * (X_lo + X_hi) + (_MAGNUS4 * dt) * action.algebra.bracket(X_lo, X_hi)
            out.append((tuple(rate), dt))
    return out


def _assert_sub_chords_match_the_loop(action, frame, pts, substeps):
    hol = loop_to_group(action, frame, pts, pts[0], closed=False, substeps=substeps)
    got = [(s.X, s.duration) for s in hol.path.segments]
    ref = loop_sub_chords(action, frame, pts, substeps)
    assert [(_bits(X), dur.hex()) for X, dur in got] == [(_bits(X), dur.hex()) for X, dur in ref]


@settings(max_examples=40, deadline=None)
@given(frame=st.sampled_from([((1.0, 0.0),), ((0.0, 1.0),), ((1.0, 0.0), (0.0, 1.0))]),
       x=st.floats(0.5, 2.0), logs=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=30),
       substeps=st.integers(1, 4))
def test_affine_walk_sub_chords_match_the_loop(frame, x, logs, substeps):
    pts = [(x * math.exp(v),) for v in np.cumsum([0.0] + logs)]
    _assert_sub_chords_match_the_loop(build("affine_line").action, frame, pts, substeps)


@settings(max_examples=25, deadline=None)
@given(r=st.floats(0.5, 2.0), phase=st.floats(-math.pi, math.pi), turns=st.floats(0.05, 1.0),
       chords=st.integers(3, 40), substeps=st.integers(1, 4))
def test_helicoid_loop_sub_chords_match_the_loop(r, phase, turns, chords, substeps):
    th = phase + 2.0 * math.pi * turns * np.arange(chords + 1) / chords
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(chords + 1)])
    _assert_sub_chords_match_the_loop(build("example6_helicoid").action, ((1.0, 0.0), (0.0, 1.0)),
                                      pts, substeps)


# ---------------------------------------------------------------------------
# whole lifts, pinned to values recorded from the index-loop implementation


@pytest.mark.parametrize("radius, phase, z0, turns, ccw, expected", [
    (0.9376694108008814, 2.9078561692305938, -1.721527406385182, 0.25, True,
     ((-0.21717737500409962, -0.9121720844983148, -0.3578703879155781),
      0.24999999999999997, 1024)),
    (1.7236568694357393, -2.7456028941487833, 1.7758355223916809, 0.5, False,
     ((1.5902721045332622, 0.6648515902788852, 41.09406399003687),
      -0.49999999999999983, 2048)),
])
def test_winding_lifts_are_unchanged(radius, phase, z0, turns, ccw, expected):
    helicoid = build("example6_helicoid").action
    x0 = (radius * math.cos(phase), radius * math.sin(phase), z0)
    path = circle_loop_path((0.0, 0.0), x0[:2], turns=turns, clockwise=not ccw)
    res = lift_path(helicoid, path, x0)
    assert res.status == "complete" and res.escape_time is None
    assert (res.endpoint_m, res.winding, res.steps) == expected


@pytest.mark.parametrize("p0, delta, z0, expected", [
    ((-0.6966148691848703, 0.0433077274846184), (1.3885844503675473, -0.08632935250536138),
     1.0048098438034014,
     ("escaped", (-3.172765427283399e-05, 6.232184215712455e-07, 0.9630497769274625),
      0.5016501240638247, 0.006755918949260226, 95)),
    ((-0.7314060316960784, 0.23148621079414924), (1.9322645523468012, -0.6114092241410618),
     -0.8835583278973993,
     ("complete", (1.2008585206507234, -0.3799230133469127, -20.44394683557836),
      None, -0.4999828361713239, 221)),
])
def test_graze_lifts_are_unchanged(p0, delta, z0, expected):
    helicoid = build("example6_helicoid").action
    path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)])
    res = lift_path(helicoid, path, (p0[0], p0[1], z0))
    assert (res.status, res.endpoint_m, res.escape_time, res.winding, res.steps) == expected
