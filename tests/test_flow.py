"""Flows of fundamental fields, words, and escape detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecomplete.flow import COMPLETE, ESCAPED, STEP_LIMIT, IntegratorConfig
from liecomplete.lift import flow, run_word
from liecomplete.manifold import OutsideDomainError
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
    out = flow(plane, (1.0, 0.0), 3.0, (0.0, 0.0))
    assert out.status == COMPLETE
    assert np.allclose(out.endpoint, (3.0, 0.0), atol=1e-10)


def test_helicoid_axis_parallel_flow(helicoid):
    # with y = 0 the z-component of the first field vanishes identically
    out = flow(helicoid, (1.0, 0.0), 1.0, (1.0, 0.0, 0.7))
    assert out.status == COMPLETE
    assert np.allclose(out.endpoint, (2.0, 0.0, 0.7), atol=1e-9)


def test_radial_escape_time(helicoid):
    out = flow(helicoid, (1.0, 0.0), 3.0, (-2.0, 0.0, 1.0))
    assert out.status == ESCAPED
    assert abs(out.escape_time - 2.0) < 1e-3
    assert not out.low_confidence
    # endpoint sits just inside the excluded axis, margin under 10*eps
    assert 0.0 < helicoid.margin(out.endpoint) < 10 * EPS_DOM


def test_escaped_endpoint_is_last_trace_point(helicoid):
    out = flow(helicoid, (1.0, 0.0), 3.0, (-2.0, 0.0, 1.0))
    assert out.trace[-1][1] == out.endpoint
    assert all(helicoid.margin(y) > 0.0 for (_, y) in out.trace)


def test_trace_density(helicoid):
    out = flow(helicoid, (1.0, 0.0), 1.0, (1.0, 0.0, 0.7))
    assert len(out.trace) >= 64
    times = [t for (t, _) in out.trace]
    assert times == sorted(times)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("a, t", [(0.875, 0.75), (1.0, 0.6)])
def test_first_step_is_not_trusted_over_the_whole_span(helicoid, a, t):
    # y stays 2, so the flow of (a, 0) turns the point by a known angle; one
    # step over the whole span passed the error test with z off by 4.6e-8 (rel)
    out = flow(helicoid, (a, 0.0), t, (2.0, 2.0, 0.5))
    dtheta = math.atan2(2.0, 2.0 + a * t) - math.atan2(2.0, 2.0)
    assert out.status == COMPLETE
    assert out.endpoint[2] == pytest.approx(0.5 * math.exp(-dtheta), rel=1e-8)


def test_negative_time_flow(helicoid):
    out = flow(helicoid, (1.0, 0.0), -1.0, (3.0, 0.0, 0.5))
    assert out.status == COMPLETE
    assert np.allclose(out.endpoint, (2.0, 0.0, 0.5), atol=1e-9)
    assert out.trace[-1][0] == pytest.approx(-1.0)


def test_zero_time_flow(helicoid):
    out = flow(helicoid, (1.0, 0.0), 0.0, (1.0, 0.0, 0.5))
    assert out.status == COMPLETE
    assert out.endpoint == (1.0, 0.0, 0.5)


def test_x0_outside_domain(helicoid):
    with pytest.raises(OutsideDomainError):
        flow(helicoid, (1.0, 0.0), 1.0, (0.0, 0.0, 1.0))


def test_start_inside_margin_shell_escapes_immediately(helicoid):
    # margin = x^2 = 1e-10 < eps_dom, but strictly positive
    out = flow(helicoid, (0.0, 1.0), 1.0, (1e-5, 0.0, 1.0))
    assert out.status == ESCAPED
    assert out.escape_time == 0.0


def test_step_limit(helicoid):
    cfg = IntegratorConfig(max_steps=3)
    out = flow(helicoid, (0.0, 1.0), 50.0, (1.0, 0.0, 1.0), cfg)
    assert out.status == STEP_LIMIT
    assert out.escape_time is None


def test_determinism(helicoid):
    a = flow(helicoid, (0.3, 0.9), 1.7, (1.0, 0.2, 0.5))
    b = flow(helicoid, (0.3, 0.9), 1.7, (1.0, 0.2, 0.5))
    assert a.trace == b.trace
    assert a.endpoint == b.endpoint


@pytest.mark.parametrize("t", [1.5, -1.5])
def test_matrix_model_dilation_flow(affine, t):
    out = flow(affine, (0.0, 1.0), t, (2.0,))
    assert out.status == COMPLETE
    assert out.endpoint[0] == pytest.approx(2.0 * math.exp(t), rel=1e-9)
    assert out.trace[-1][0] == pytest.approx(t)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=1e-16)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(escape_margin=0.0)


# ---------------------------------------------------------------------------
# words


def test_square_word_returns(helicoid):
    word = [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1.0, 0.0), -1.0), ((0.0, 1.0), -1.0)]
    out = run_word(helicoid, word, (1.0, 1.0, 1.0))
    assert out.status == COMPLETE
    assert np.max(np.abs(np.asarray(out.endpoint) - (1.0, 1.0, 1.0))) < 1e-8


def test_single_stage_word_equals_flow(helicoid):
    out_w = run_word(helicoid, [((0.0, 1.0), 0.8)], (1.0, 0.0, 0.5))
    out_f = flow(helicoid, (0.0, 1.0), 0.8, (1.0, 0.0, 0.5))
    assert out_w.status == out_f.status == COMPLETE
    assert out_w.endpoint == out_f.endpoint


def test_word_escape_reports_stage(helicoid):
    out = run_word(helicoid, [((1.0, 0.0), -2.0), ((0.0, 1.0), 1.0)], (1.0, 0.0, 0.7))
    assert out.status == ESCAPED
    assert out.failed_stage == 0
    # the first stage reaches the axis at local time -1, i.e. elapsed 1
    assert abs(out.escape_time - 1.0) < 1e-3
    assert abs(out.stage_escape_time - (-1.0)) < 1e-3


def test_word_global_clock_monotone(helicoid):
    word = [((1.0, 0.0), 1.0), ((0.0, 1.0), -1.0)]
    out = run_word(helicoid, word, (1.0, 0.0, 0.5))
    times = [t for (t, _) in out.trace]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(2.0)


def test_matrix_model_word(affine):
    # translate by 0.7, then dilate by e^-0.4
    out = run_word(affine, [((1.0, 0.0), 0.7), ((0.0, 1.0), -0.4)], (2.0,))
    assert out.status == COMPLETE
    assert out.endpoint[0] == pytest.approx(2.7 * math.exp(-0.4), rel=1e-9)


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
        full = flow(action, X, s + t, x0)
        first = flow(action, X, s, x0)
        if not (full.status == first.status == COMPLETE):
            return
        second = flow(action, X, t, first.endpoint)
        if second.status != COMPLETE:
            return
        assert np.max(np.abs(np.asarray(full.endpoint) - second.endpoint)) < 1e-8
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
        out = run_word(action, word + inverse, x0)
        if out.status != COMPLETE:
            return
        assert np.max(np.abs(np.asarray(out.endpoint) - x0)) < 1e-8
        exercised.append(word)

    check()
    assert len(exercised) >= 12
