"""Flows of fundamental fields, words, and escape detection.

A flow, or a word of flows, is the lift of ``GPath.word``'s path: the lift's
unit clock ``s`` is flow time ``s * sum(|t|)``, and within a one-stage word
flow time is ``s * t``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecomplete.algebra import AbelianGroup
from liecomplete.expr import parse
from liecomplete.flow import (
    COMPLETE, ESCAPE_MARGIN, ESCAPED, STEP_LIMIT, IntegratorConfig,
    _golden_min, _scan_margins,
)
from liecomplete.lift import ExpSeg, GPath, LinearSeg, lift_path
from liecomplete.manifold import Domain, GAction, OutsideDomainError
from liecomplete.scenarios import build

EPS_DOM = 1e-9


@pytest.fixture(scope="module")
def helicoid():
    return build("example6_helicoid", {"alpha": 1.0}).action


@pytest.fixture(scope="module")
def plane():
    return build("translation_rn", {"n": 2}).action


@pytest.fixture(scope="module")
def affine():
    return build("affine_line").action


def test_translation_flow(plane):
    res = lift_path(plane, GPath.word(plane.group, [((1.0, 0.0), 3.0)]), (0.0, 0.0))
    assert res.status == COMPLETE
    assert np.allclose(res.endpoint_m, (3.0, 0.0), atol=1e-10)


def test_helicoid_axis_parallel_flow(helicoid):
    # with y = 0 the z-component of the first field vanishes identically
    res = lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), 1.0)]), (1.0, 0.0, 0.7))
    assert res.status == COMPLETE
    assert np.allclose(res.endpoint_m, (2.0, 0.0, 0.7), atol=1e-9)


def test_radial_escape_time(helicoid):
    res = lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), 3.0)]), (-2.0, 0.0, 1.0))
    assert res.status == ESCAPED
    assert abs(3.0 * res.escape_time - 2.0) < 1e-3
    assert not res.low_confidence
    # endpoint sits just inside the excluded axis, margin under 10*eps
    assert 0.0 < helicoid.margin(res.endpoint_m) < 10 * EPS_DOM


def test_escaped_endpoint_is_last_trace_point(helicoid):
    res = lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), 3.0)]), (-2.0, 0.0, 1.0))
    assert res.rows[-1][3] == res.endpoint_m
    assert all(helicoid.margin(y) > 0.0 for (_, _, _, y) in res.rows)


def test_trace_density(helicoid):
    res = lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), 1.0)]), (1.0, 0.0, 0.7))
    assert len(res.rows) >= 64
    times = [s for (s, _, _, _) in res.rows]   # |t| = 1: the lift clock is flow time
    assert times == sorted(times)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("a, t", [(0.875, 0.75), (1.0, 0.6)])
def test_first_step_is_not_trusted_over_the_whole_span(helicoid, a, t):
    # y stays 2, so the flow of (a, 0) turns the point by a known angle; one
    # step over the whole span passed the error test with z off by 4.6e-8 (rel)
    res = lift_path(helicoid, GPath.word(helicoid.group, [((a, 0.0), t)]), (2.0, 2.0, 0.5))
    dtheta = math.atan2(2.0, 2.0 + a * t) - math.atan2(2.0, 2.0)
    assert res.status == COMPLETE
    assert res.endpoint_m[2] == pytest.approx(0.5 * math.exp(-dtheta), rel=1e-8)


def test_negative_time_flow(helicoid):
    res = lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), -1.0)]), (3.0, 0.0, 0.5))
    assert res.status == COMPLETE
    assert np.allclose(res.endpoint_m, (2.0, 0.0, 0.5), atol=1e-9)
    assert -1.0 * res.rows[-1][0] == pytest.approx(-1.0)


def test_zero_time_flow(helicoid):
    res = lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), 0.0)]), (1.0, 0.0, 0.5))
    assert res.status == COMPLETE
    assert res.endpoint_m == (1.0, 0.0, 0.5)


def test_x0_outside_domain(helicoid):
    with pytest.raises(OutsideDomainError):
        lift_path(helicoid, GPath.word(helicoid.group, [((1.0, 0.0), 1.0)]), (0.0, 0.0, 1.0))


def test_start_inside_margin_shell_escapes_immediately(helicoid):
    # margin = x^2 = 1e-10 < eps_dom, but strictly positive
    res = lift_path(helicoid, GPath.word(helicoid.group, [((0.0, 1.0), 1.0)]), (1e-5, 0.0, 1.0))
    assert res.status == ESCAPED
    assert res.escape_time == 0.0


def test_step_limit(helicoid):
    cfg = IntegratorConfig(max_steps=3)
    res = lift_path(helicoid, GPath.word(helicoid.group, [((0.0, 1.0), 50.0)]), (1.0, 0.0, 1.0), cfg)
    assert res.status == STEP_LIMIT
    assert res.escape_time is None


# ---------------------------------------------------------------------------
# low-confidence escapes, on 1-D abelian actions lifted along one LinearSeg


def _line_lift(field, x0, delta=1.0, exclusions=()):
    domain = Domain(("x",), margins=[parse(e) for e in exclusions])
    action = GAction(AbelianGroup(1), domain, [[parse(field)]])
    return lift_path(action, GPath(action.group, (0.0,), [LinearSeg((delta,), 1.0)]), (x0,))


def test_a_margin_that_drops_to_minus_inf_escapes_at_the_bisection_floor():
    # the margin 1/sqrt(x) grows toward x = 0 and cannot be evaluated from
    # there on, so no point near the crossing has a margin under 10 * eps
    res = _line_lift("1", 1.0, -2.0, ["1/x * sqrt(x)"])
    assert (res.status, res.low_confidence) == (ESCAPED, True)
    assert res.escape_time == pytest.approx(0.5, abs=1e-12)


def test_a_step_that_fails_at_every_size_collapses():
    # sqrt(0.5 - x) is 0 at x0 and cannot be evaluated past it
    res = _line_lift("1 + 0*sqrt(0.5 - x)", 0.5)
    assert (res.status, res.escape_time, res.low_confidence, res.steps) == (ESCAPED, 0.0, True, 39)


def test_a_field_not_evaluable_at_the_start_escapes_with_no_step():
    res = _line_lift("sqrt(x - 1)", 0.5)
    assert (res.status, res.escape_time, res.low_confidence, res.steps) == (ESCAPED, 0.0, True, 0)


def test_a_field_not_finite_at_the_start_escapes_with_no_step():
    # the field evaluates, but to inf: nothing can move either
    res = _line_lift("x*1e308*10", 1.0)
    assert (res.status, res.escape_time, res.low_confidence, res.steps) == (ESCAPED, 0.0, True, 0)


@pytest.mark.parametrize("h", [1e-300, 1e-12, 1e-3, 1.0, 1e12, 1e300])
@pytest.mark.parametrize("ms, lo, drop", [
    # a crossing between the samples at 0.75 and 1: a bracket 0.25 wide
    ((1.0, 0.75, 0.5, 0.25, -math.inf), 0.75, 0.8),
    # a crossing found by the dip search over [0.25, 0.75]: nearly 0.5 wide
    ((1.0, 0.75, 50.0 * ESCAPE_MARGIN, 0.25, 0.1), 0.25, 0.7499),
], ids=["sampled", "dip"])
def test_the_escape_bisection_ends_within_50_passes(h, ms, lo, drop):
    def margin(p):
        calls.append(p[0])
        return 1.0 - p[0] if p[0] < drop else -math.inf

    calls = []
    if lo == 0.25:
        _golden_min(lambda s: margin([s]), lo, 0.75)
    searched = len(calls)   # the dip search's calls come first
    calls.clear()
    found = _scan_margins(margin, lambda s: [s], ms, h)
    assert found[0] == "escape" and found[3] is True
    s_lo, s_mid = found[1:3]
    assert s_lo < drop <= 2.0 * s_mid - s_lo and s_mid - s_lo < 1e-15
    # each pass evaluates one new midpoint; the other calls revisit s_lo
    assert len(set(calls[searched:]) - {lo}) <= 50


def test_determinism(helicoid):
    a = lift_path(helicoid, GPath.word(helicoid.group, [((0.3, 0.9), 1.7)]), (1.0, 0.2, 0.5))
    b = lift_path(helicoid, GPath.word(helicoid.group, [((0.3, 0.9), 1.7)]), (1.0, 0.2, 0.5))
    assert a.rows == b.rows
    assert a.endpoint_m == b.endpoint_m


@pytest.mark.parametrize("t", [1.5, -1.5])
def test_matrix_model_dilation_flow(affine, t):
    res = lift_path(affine, GPath.word(affine.group, [((0.0, 1.0), t)]), (2.0,))
    assert res.status == COMPLETE
    assert res.endpoint_m[0] == pytest.approx(2.0 * math.exp(t), rel=1e-9)
    assert t * res.rows[-1][0] == pytest.approx(t)


def test_flows_compute_no_group_point_per_row(affine, monkeypatch):
    # a flow or a word reads manifold points only: the one exponential per
    # stage builds the path, and no trace row asks for its group point
    from liecomplete.algebra import MatrixGroup

    calls = []
    expm = MatrixGroup.exp_segment
    monkeypatch.setattr(MatrixGroup, "exp_segment",
                        lambda self, X, t=1.0: calls.append(t) or expm(self, X, t))
    res = lift_path(affine, GPath.word(affine.group, [((0.0, 1.0), 1.5)]), (2.0,))
    assert res.status == COMPLETE and len(res.rows) > 1
    assert res.endpoint_m[0] == pytest.approx(2.0 * math.exp(1.5), rel=1e-9)
    assert len(calls) <= 1
    calls.clear()
    word = [((1.0, 0.0), 0.7), ((0.0, 1.0), -0.4)]
    res = lift_path(affine, GPath.word(affine.group, word), (2.0,))
    assert res.status == COMPLETE and len(res.rows) > 2
    assert res.endpoint_m[0] == pytest.approx(2.7 * math.exp(-0.4), rel=1e-9)
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=1e-16)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=bad)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=bad)
    # a NaN or infinite step limit is never reached; a fraction or a bool is not a count
    for bad in (0, -3, math.nan, math.inf, 2.5, True, 1e6):
        with pytest.raises(ValueError, match="max_steps"):
            IntegratorConfig(max_steps=bad)


# ---------------------------------------------------------------------------
# words


def test_square_word_returns(helicoid):
    word = [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1.0, 0.0), -1.0), ((0.0, 1.0), -1.0)]
    res = lift_path(helicoid, GPath.word(helicoid.group, word), (1.0, 1.0, 1.0))
    assert res.status == COMPLETE
    assert np.max(np.abs(np.asarray(res.endpoint_m) - (1.0, 1.0, 1.0))) < 1e-8


def test_single_stage_word_equals_flow(helicoid):
    # a one-stage word is the flow's one-segment path from the identity
    G = helicoid.group
    out_w = lift_path(helicoid, GPath.word(G, [((0.0, 1.0), 0.8)]), (1.0, 0.0, 0.5))
    out_f = lift_path(helicoid, GPath(G, G.identity(), [ExpSeg((0.0, 1.0), 0.8)]), (1.0, 0.0, 0.5))
    assert out_w.status == out_f.status == COMPLETE
    assert out_w.endpoint_m == out_f.endpoint_m


def test_word_escape_reports_stage(helicoid):
    word = [((1.0, 0.0), -2.0), ((0.0, 1.0), 1.0)]
    res = lift_path(helicoid, GPath.word(helicoid.group, word), (1.0, 0.0, 0.7))
    assert res.status == ESCAPED
    assert res.failed_segment == 0
    # the first stage reaches the axis at local time -1, i.e. elapsed 1
    elapsed = 3.0 * res.escape_time
    assert abs(elapsed - 1.0) < 1e-3
    assert abs(math.copysign(elapsed, -2.0) - (-1.0)) < 1e-3


def test_word_global_clock_monotone(helicoid):
    word = [((1.0, 0.0), 1.0), ((0.0, 1.0), -1.0)]
    res = lift_path(helicoid, GPath.word(helicoid.group, word), (1.0, 0.0, 0.5))
    times = [2.0 * s for (s, _, _, _) in res.rows]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(2.0)


def test_matrix_model_word(affine):
    # translate by 0.7, then dilate by e^-0.4
    word = [((1.0, 0.0), 0.7), ((0.0, 1.0), -0.4)]
    res = lift_path(affine, GPath.word(affine.group, word), (2.0,))
    assert res.status == COMPLETE
    assert res.endpoint_m[0] == pytest.approx(2.7 * math.exp(-0.4), rel=1e-9)


# ---------------------------------------------------------------------------
# group law / inverse properties


# Each property runs its hypothesis search inside the test and counts the
# examples that reached the assertion, so an escape on every draw cannot
# pass vacuously.


def test_flow_group_law():
    action = build("example6_helicoid", {"alpha": 1.0}).action
    exercised = []

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(0.1, 1.2),
        t=st.floats(0.1, 1.2),
        a=st.floats(-1.0, 1.0),
        b=st.floats(-1.0, 1.0),
    )
    def check(s, t, a, b):
        X = (a, b)
        x0 = (2.0, 2.0, 0.5)  # far from the axis so moderate flows stay inside
        G = action.group
        full = lift_path(action, GPath.word(G, [(X, s + t)]), x0)
        first = lift_path(action, GPath.word(G, [(X, s)]), x0)
        if not (full.status == first.status == COMPLETE):
            return
        second = lift_path(action, GPath.word(G, [(X, t)]), first.endpoint_m)
        if second.status != COMPLETE:
            return
        assert np.max(np.abs(np.asarray(full.endpoint_m) - second.endpoint_m)) < 1e-8
        exercised.append(X)

    check()
    assert len(exercised) >= 20


def test_word_inverse_returns():
    action = build("example6_helicoid", {"alpha": 1.0}).action
    exercised = []

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.05, 0.6)),
            min_size=1,
            max_size=4,
        )
    )
    def check(data):
        x0 = (3.0, 3.0, 0.5)
        word = [((a, b), t) for (a, b, t) in data]
        inverse = [((a, b), -t) for ((a, b), t) in reversed(word)]
        res = lift_path(action, GPath.word(action.group, word + inverse), x0)
        if res.status != COMPLETE:
            return
        assert np.max(np.abs(np.asarray(res.endpoint_m) - x0)) < 1e-8
        exercised.append(word)

    check()
    assert len(exercised) >= 12
