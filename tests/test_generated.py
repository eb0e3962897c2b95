"""Hot-path code against the loops it replaces.

The rhs contraction, the domain margin, the Hermite interpolant and the
integrator's whole run over a segment are generated as straight-line Python.
The run is one generated loop, fed either lines that call a plain rhs and
margin (the generic kernel) or an action's contraction and margin to inline
(its own kernel); both kernels are compared here with ``loop_integrate``,
the loop they replaced, which takes a
step at a time through the loop forms of the step, the first-step norm and
the interpolant, and hands every accepted step's margins to
``_scan_margins``.  The kernels' commit test clears the steps that scan would
commit with no margin call, at the fixed escape level ``ESCAPE_MARGIN`` and bisection width
``ESCAPE_TIME_WIDTH``; group paths and the loop decompositions of
``loop_to_group`` are built from whole arrays.  The loop forms are kept
here as references; the new code must give the same floats bit for bit
(compared through ``float.hex``, so signed zeros and NaNs count too),
because it does the same operations in the same order.  Three whole-lift
hashes pin every output of a long circle lift, of 200 lines past the
helicoid axis and of 300 coarse circles whose steps the winding fold
(``lift._turn``) subdivides, and a fourth pins the group elements and
re-lift residuals of ``loop_to_group``; the 200 lines are also checked
against their closed form, within bounds set by the tolerances, which is
what lets their hashes be re-pinned when the step sequence changes.  The
scan skips the dip searches that the margin's lower bound proves futile;
three tests run each scan both with and without that shortcut, and the two
must agree.
"""

import functools
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecomplete import flow, lift, manifold
from liecomplete.algebra import AbelianGroup
from liecomplete.completion import (
    _GL2_OFFSET, _MAGNUS4, FRAME_CONDITION_LIMIT, ORBIT_RESIDUAL_REL, FrameConditionError,
    LoopGeometryError, LoopOutsideOrbitError, loop_to_group,
)
from liecomplete.expr import EVAL_ERRORS, compile_scalars, parse
from liecomplete.flow import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7, _SCAN, COMPLETE, ESCAPE_MARGIN, ESCAPE_TIME_WIDTH, ESCAPED,
    STEP_COLLAPSE, STEP_LIMIT, IntegratorConfig, _golden_min, _hermite, _scan_margins,
)
from liecomplete.lift import ExpSeg, GPath, LinearSeg, PathError, _resolve, lift_path
from liecomplete.manifold import Domain, GAction
from liecomplete.scenarios import build, circle_loop_path

from scenario_oracles import oracle_z

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
# a NaN coefficient makes every stage NaN, so the step must give None
step_coefficient = st.one_of(coefficient, st.just(math.nan))
step_size = st.floats(min_value=1e-8, max_value=2.0)


def _bits(values):
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# the loop forms


def loop_rhs(action, X):
    """y -> sum_i X_i zeta_i(y), accumulated row by row into a zeroed list."""
    n = action.dim_manifold
    coeffs = [float(v) for v in X]
    # one function per row, so that a row whose coefficient is zero is not evaluated
    row_fns = [compile_scalars(row, action.domain.coords, action.params) for row in action.fields]

    def f(y):
        out = [0.0] * n
        for ci, row_fn in zip(coeffs, row_fns):
            if ci != 0.0:
                row = row_fn(*y)
                for j in range(n):
                    out[j] += ci * row[j]
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
        # an open side's distance is inf or NaN, never below m
        for x, (lo, hi) in zip(vals, box):
            if x - lo < m:
                m = x - lo
            if hi - x < m:
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
    except EVAL_ERRORS:
        return None
    return y1, k7, err


def _loop_interp(y0, f0, y1, f1, h, s):
    """Cubic Hermite interpolant of one step at the fraction s in [0, 1]."""
    s2 = s * s
    a = s2 * (2.0 * s - 3.0) + 1.0
    b = h * (s2 * (s - 2.0) + s)
    c = s2 * (3.0 - 2.0 * s)
    d = h * s2 * (s - 1.0)
    return [
        a * y0[i] + b * f0[i] + c * y1[i] + d * f1[i]
        for i in range(len(y0))
    ]


def loop_hermite(y0, f0, y1, f1, h):
    """``_loop_interp`` bound to one step's data.

    The data are its ``args``, as for the interpolants ``flow._hermite``
    makes, so the margin scan's hull reads them from it.
    """
    return functools.partial(_loop_interp, y0, f0, y1, f1, h)


def loop_first_norm(f0, y, atol, rtol):
    """RMS of f0 scaled by atol + rtol * |y|, summed left to right.

    This is ``math.sqrt(sum(...) / n)`` over a generator, as the integrator
    computed it, on Pythons whose ``sum`` of floats is not compensated (< 3.12).
    """
    acc = 0
    for i in range(len(y)):
        acc += (f0[i] / (atol + rtol * abs(y[i]))) ** 2
    return math.sqrt(acc / len(y))


def loop_scan_margins(margin, interp, m0, m_end, eps, h, width):
    """The one-phase margin scan: samples, crossing, dip and escape bisection."""
    ms = [m0]
    for s in _SCAN[:-1]:
        ms.append(margin(interp(s)))
    ms.append(m_end)
    ss = (0.0,) + _SCAN

    cross = None
    for i in range(1, 5):
        if ms[i] <= eps:
            cross = (ss[i - 1], ss[i])
            break
    if cross is None:
        mmin = min(ms)
        mmax = max(ms)
        if mmin < 0.5 * mmax or mmin < 100.0 * eps:
            im = ms.index(mmin)
            lo = ss[max(0, im - 1)]
            hi = ss[min(4, im + 1)]
            s_star, m_star = _golden_min(lambda s: margin(interp(s)), lo, hi)
            if m_star <= eps:
                cross = (lo, s_star)
            elif m_star < 0.5 * min(m0, m_end):
                return ("dip", s_star)
    if cross is None:
        return None

    s_lo, s_hi = cross
    low_conf = False
    for _ in range(80):
        width_ok = (s_hi - s_lo) * abs(h) < width
        if width_ok and margin(interp(s_lo)) < 10.0 * eps:
            break
        if (s_hi - s_lo) < 1e-15:
            low_conf = True
            break
        mid = 0.5 * (s_lo + s_hi)
        if margin(interp(mid)) > eps:
            s_lo = mid
        else:
            s_hi = mid
    else:
        low_conf = True
    return ("escape", s_lo, 0.5 * (s_lo + s_hi), low_conf)


def loop_integrate(rhs, y0, duration, atol, rtol, max_steps, margin, on_step):
    """The integrator loop that the generated kernels replace, a step at a time on the loop forms.

    Every accepted step's margins go to ``flow._scan_margins``, which
    commits most of them with no margin call.
    """
    y = y0
    t = 0.0
    m_curr = margin(y)
    if m_curr <= ESCAPE_MARGIN:
        return ESCAPED, 0.0, tuple(y), 0, False
    try:
        f0 = rhs(y)
        if not all(map(math.isfinite, f0)):
            raise ValueError
    except EVAL_ERRORS:
        return ESCAPED, 0.0, tuple(y), 0, True
    try:
        d1 = loop_first_norm(f0, y, atol, rtol)
    except OverflowError:
        d1 = math.inf
    h = min(duration, (0.01 / d1) ** 0.2) if 0.0 < d1 < math.inf else duration

    steps = 0
    h_acc = err_acc = None
    while steps < max_steps:
        remaining = duration - t
        if remaining <= 0.0:
            return COMPLETE, t, tuple(y), steps, False
        h = min(h, remaining)
        out = loop_step(rhs, y, f0, h, atol, rtol)
        steps += 1
        if out is None:
            shrink = 0.5
        elif out[2] > 1.0:
            shrink = max(0.2, 0.9 * out[2] ** -0.2)
        else:
            y1, k7, err = out
            interp = loop_hermite(y, f0, y1, k7, h)
            ms = (m_curr, *[margin(interp(s)) for s in _SCAN[:-1]], margin(y1))
            found = flow._scan_margins(margin, interp, ms, h)
            if found is None:
                on_step(t, t + h, y1, interp)
                t += h
                if h == remaining:
                    return COMPLETE, t, tuple(y1), steps, False
                y, f0, m_curr = y1, k7, ms[4]
                if err == 0.0:
                    fac = 5.0
                else:
                    fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
                    if h_acc is not None:
                        fac = min(fac, max(0.2, 0.9 * (h / h_acc) * err_acc ** 0.2 / err ** 0.4))
                h_acc, err_acc = h, max(err, 1e-2)
                h *= fac
                continue
            if found[0] == "escape":
                _, s_cut, s_mid, low = found
                y_cut = interp(s_cut)
                if s_cut > 0.0:
                    on_step(t, t + s_cut * h, y_cut, lambda s, _i=interp, _c=s_cut: _i(s * _c))
                return ESCAPED, t + s_mid * h, tuple(y_cut), steps, low
            shrink = found[1]
        h *= shrink
        if h < STEP_COLLAPSE:
            return ESCAPED, t, tuple(y), steps, True
    return STEP_LIMIT, t, tuple(y), steps, False


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
    for j, (lo, hi) in enumerate(action.domain.box):
        if hi - lo < math.inf:
            point[j] = lo + (hi - lo) * (0.05 + 0.9 * abs(math.sin(point[j])))
    if action.margin(point) <= 1e-3:
        point[0] += 1.0
    return point


def _run(integrate, *args):
    """A run's return value (as bits, or the name of the error it raised), ``on_step`` calls and scans.

    Each call gives ``t0``, ``t1``, ``y1`` and the interpolant at s = 0,
    0.25, 0.5, 0.75 and 1; each scan is the five margins of a step handed
    to ``flow._scan_margins``.
    """
    calls, scans = [], []
    scan = flow._scan_margins

    def on_step(t0, t1, y1, interp):
        calls.append((t0.hex(), t1.hex(), _bits(y1),
                      [_bits(interp(s)) for s in (0.0, 0.25, 0.5, 0.75, 1.0)]))

    def recorded(margin, interp, ms, *rest):
        scans.append(ms)
        return scan(margin, interp, ms, *rest)

    flow._scan_margins = recorded
    try:
        status, t_end, y_end, steps, low = integrate(*args, on_step)
    except EVAL_ERRORS as exc:
        return type(exc).__name__, calls, scans
    finally:
        flow._scan_margins = scan
    return (status, t_end.hex(), _bits(y_end), steps, low), calls, scans


def _refined(ms):
    """Whether the kernels' commit test hands the step with margins ``ms`` to ``_scan_margins``."""
    mmin = min(ms)
    return not (mmin > ESCAPE_MARGIN and not (mmin < 0.5 * max(ms) or mmin < 100.0 * ESCAPE_MARGIN))


def _assert_same_runs(rhs, margin, y0, duration, atol, rtol, max_steps):
    """Both kernels give the loop's run from ``y0``; returns it.

    The generic kernel always runs, with ``(rhs, margin)``.  Unless ``rhs``
    is the plain ``_stiff_rhs``, it is an action's rhs, ``partial(func,
    *coefficients)``, and ``margin`` that action's margin: the pattern's own
    kernel, ``func.kernel``, must be there for that margin, and runs with the
    coefficients ``rhs.args``.
    """
    out, calls, scans = _run(loop_integrate, rhs, y0, duration, atol, rtol, max_steps, margin)
    # the loop scans every accepted step, the kernels only those that the
    # commit test does not clear, with the same margins
    ref = out, calls, [_bits(ms) for ms in scans if _refined(ms)]
    generic = flow._generic_kernel(len(y0))
    out, calls, scans = _run(generic, (rhs, margin), y0, duration, atol, rtol, max_steps)
    assert (out, calls, [_bits(ms) for ms in scans]) == ref
    if rhs is not _stiff_rhs:
        own = rhs.func.kernel
        assert own[0] is margin
        out, calls, scans = _run(own[1], rhs.args, y0, duration, atol, rtol, max_steps)
        assert (out, calls, [_bits(ms) for ms in scans]) == ref
    return ref[:2]


# ---------------------------------------------------------------------------
# the built-in scenarios


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rhs_matches_the_loop(action, data):
    X = data.draw(st.lists(coefficient, min_size=action.dim_algebra,
                           max_size=action.dim_algebra))
    y = _inside(action, data)
    assert _bits(action.rhs(X)(y)) == _bits(loop_rhs(action, X)(y))


def test_rhs_of_one_pattern_share_one_function_and_kernel():
    # a segment's rhs binds its coefficients to its pattern's function, which
    # is generated once, with its kernel: a lift builds no function per segment
    action = build("example6_helicoid").action
    y = [0.3, -1.2, 0.7]
    a, b = action.rhs([1.0, 0.5]), action.rhs([-2.0, 3e-7])
    assert a.func is b.func and a.func.kernel is b.func.kernel
    assert (a.args, b.args) == ((1.0, 0.5), (-2.0, 3e-7))
    for X, rhs in (([1.0, 0.5], a), ([-2.0, 3e-7], b)):
        assert _bits(rhs(y)) == _bits(loop_rhs(action, X)(y))
    # a zero coefficient is another pattern, whose row is left out
    c = action.rhs([0.0, 3.0])
    assert c.func is not a.func and c.args == (3.0,)
    assert _bits(c(y)) == _bits(loop_rhs(action, [0.0, 3.0])(y))


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
    # the first step of a run over h: its size, stages, error test and margin scan
    X = data.draw(st.lists(step_coefficient, min_size=action.dim_algebra,
                           max_size=action.dim_algebra))
    y = _inside(action, data)
    rhs = action.rhs(X)
    _assert_same_runs(rhs, action._margin, y, h, atol, rtol, 1)
    f0 = rhs(y)
    ref = loop_step(rhs, y, f0, h, atol, rtol)
    if ref is not None:
        y1, k7, _ = ref
        for s in (0.0, 0.25, 0.5, 0.75, 1.0, data.draw(st.floats(0.0, 1.0))):
            assert _bits(_hermite(len(y))(y, f0, y1, k7, h)(s)) == _bits(loop_hermite(y, f0, y1, k7, h)(s))


def test_helicoid_margin_on_the_axis_and_box_walls():
    helicoid = build("example6_helicoid").action
    annulus = build("example4_annulus").action
    assert helicoid._margin([0.0, 0.0, 1.0]) == 0.0
    ref = loop_margin(annulus.domain, annulus.params)
    for p in ([0.5, 0.0], [2.0, 1.0], [1.0, 2.0 * math.pi], [0.1, -7.0], [3.0, 9.0]):
        assert _bits([annulus._margin(p)]) == _bits([ref(*p)])


# ---------------------------------------------------------------------------
# margins that raise or give NaN, any n


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _translation(n):
    return build("translation_rn", {"n": n}).action


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


def _stiff_margin(y):
    # finite for small states; -inf past y[-1] = 40, NaN (inf - inf) when y[0] is past it too
    return (1.0 - 1e-3 * y[0] * y[-1] + (math.inf if y[0] > 40.0 else 0.0)
            - (math.inf if y[-1] > 40.0 else 0.0))


_STIFF = {}


def _stiff_action(n):
    """A one-field action on R^n like ``_stiff_rhs`` and ``_stiff_margin``, whose stages raise more ways.

    Its field raises at x_n == 0, below x_1 == -60 and where an odd
    component's cube passes the float range, and is infinite where an even
    component's does.  Its margin raises below x_1 == -45, is NaN (inf - inf)
    where x_1 cubed overflows, and is below 0 past the wall x_n == 40.
    """
    if n not in _STIFF:
        coords = tuple(f"x{j + 1}" for j in range(n))
        last = coords[-1]
        cube = ["{0}*{0}*{0}", "{0}^3"]
        field = [parse(f"sin({c}) * x1 * 1000 - 1/{last} + {cube[j % 2].format(c)} + sqrt(x1 + 60)")
                 for j, c in enumerate(coords)]
        box = (None,) * (n - 1) + ((None, 40.0),)
        domain = Domain(coords, box=box,
                        margins=(parse(f"1 - 0.001*x1*{last}"), parse("log(x1 + 45)"),
                                 parse("x1*x1*x1 - x1*x1*x1 + 1")))
        _STIFF[n] = GAction(AbelianGroup(1), domain, [field])
    return _STIFF[n]


@settings(max_examples=80, deadline=None)
@given(y=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=5),
       h=step_size, c=st.sampled_from([1.0, -0.75, math.nan]))
def test_dp5_step_matches_the_loop_for_any_n(y, h, c):
    # the generic kernel on plain functions, whose margin can be NaN
    _assert_same_runs(_stiff_rhs, _stiff_margin, y, h, 1e-12, 1e-9, 2)
    if y[-1] != 0.0:
        f0 = _stiff_rhs(y)
        ref = loop_step(_stiff_rhs, y, f0, h, 1e-12, 1e-9)
        if ref is not None:
            y1, k7, _ = ref
            hermite = _hermite(len(y))
            assert _bits(hermite(y, f0, y1, k7, h)(0.3)) == _bits(loop_hermite(y, f0, y1, k7, h)(0.3))
    # both kernels on an action's
    action = _stiff_action(len(y))
    _assert_same_runs(action.rhs([c]), action._margin, y, h, 1e-12, 1e-9, 2)


def _shared_action():
    """Fields that share subtrees across components and rows; their stages raise where z < -5."""
    fields = [[parse("y/(x^2 + 1)"), parse("x*y/(x^2 + 1)"), parse("sqrt(z + 5)")],
              [parse("sqrt(z + 5)*x"), parse("1"), parse("y/(x^2 + 1) - 2")]]
    return GAction(AbelianGroup(2), Domain(("x", "y", "z")), fields)


@pytest.mark.parametrize("make, shared", [
    (lambda: build("example6_helicoid").action, ["((_v0 ** 2) + (_v1 ** 2))"]),
    # y/(x^2 + 1), first, holds x^2 + 1, which x*y/(x^2 + 1) shares too
    (_shared_action, ["((_v0 ** 2) + 1.0)", "_sqrt((_v2 + 5.0))", "(_v1 / "]),
], ids=["helicoid", "nested"])
def test_shared_subtrees_are_computed_once_per_stage(monkeypatch, make, shared):
    sources = []
    define = manifold._define
    monkeypatch.setattr(manifold, "_define",
                        lambda src, names=None: sources.append(src) or define(src, names))
    make().rhs([1.0, 0.5])
    lines = [line.strip() for line in sources[-1].splitlines()]
    # the lines from each point to the next: the rhs's, then the kernel's start
    # and its six stages; the four margin samples set only the coordinates the
    # margin reads, which are never all three here
    starts = [k for k, line in enumerate(lines) if line.startswith("_v0, _v1, _v2, =")]
    starts.append(len(lines))
    assert len(starts) == 9
    contractions = 0
    for a, b in zip(starts, starts[1:]):
        # the contraction's lines: its temps, then the components that read them or the point
        body = [line for line in lines[a:b]
                if line.startswith(("_t", "return [", "k")) and ("_v" in line or "_t" in line)]
        if body:
            contractions += 1
            for text in shared:
                assert sum(line.count(text) for line in body) == 1, (text, body)
    assert contractions == 8


def test_margin_samples_set_only_the_coordinates_the_margin_reads(monkeypatch):
    # the helicoid's margin x^2 + y^2 reads no z, so no sample computes the z
    # term of the interpolant; the generic kernel's plain margin takes whole points
    sources = []
    define = manifold._define
    for module in (flow, manifold):
        monkeypatch.setattr(module, "_define",
                            lambda src, names=None: sources.append(src) or define(src, names))
    build("example6_helicoid").action.rhs([1.0, 0.5])
    lines = [line.strip() for line in sources[-1].splitlines()]
    samples = [line for line in lines if line.startswith("_v0, _v1, =")]
    assert len(samples) == 4   # the three interior samples, then the step's end
    assert samples[-1] == "_v0, _v1, = z0, z1,"
    for line in samples[:3]:
        assert "x0" in line and "x1" in line and not any(v in line for v in ("x2", "z2", "k1_2", "k7_2"))
    flow._generic_kernel.__wrapped__(3)   # past the cache, so that its source is generated
    lines = [line.strip() for line in sources[-1].splitlines()]
    # the start, the six stages and the four margin samples
    assert sum(line.startswith("_v0, _v1, _v2, =") for line in lines) == 11


def test_dp5_step_with_shared_subtrees_matches_the_loop():
    action = _shared_action()
    hits = {"step": 0, "none": 0}

    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
           X=st.lists(step_coefficient, min_size=2, max_size=2), h=step_size)
    def check(y, X, h):
        rhs, ref_rhs = action.rhs(X), loop_rhs(action, X)
        try:
            f0 = ref_rhs(y)
        except EVAL_ERRORS:
            with pytest.raises(EVAL_ERRORS):
                rhs(y)
            return
        assert _bits(rhs(y)) == _bits(f0)
        _, calls = _assert_same_runs(rhs, action._margin, y, h, 1e-12, 1e-9, 1)
        hits["step" if calls else "none"] += 1

    check()
    assert hits["step"] >= 50 and hits["none"] >= 20, hits


@pytest.mark.parametrize("field, y, h", [
    ("-sqrt(x)", [1.0], 10.0),       # the second stage takes sqrt(-1)
    ("1/(2 - x)", [1.0], 5.0),       # the second stage divides by 0
    ("x^3", [1e50], 1.0),            # a stage's cube passes the float range
    ("x*x*x", [1e100], 1e10),        # y1 is not finite
    ("x", [1.0], 1.0),               # y1 is finite, err is not
], ids=["sqrt", "divide", "power", "y1", "err"])
def test_dp5_step_matches_the_loop_where_the_step_fails(field, y, h):
    # at these tolerances the first-step norm passes the float range, so the
    # first step is the whole run; it fails, and a one-step run ends there
    action = GAction(AbelianGroup(1), Domain(("x",)), [[parse(field)]])
    rhs = action.rhs([1.0])
    assert loop_step(rhs, y, rhs(y), h, 1e-300, 1e-300) is None
    ref = _assert_same_runs(rhs, action._margin, y, h, 1e-300, 1e-300, 1)
    assert ref == ((STEP_LIMIT, "0x0.0p+0", _bits(y), 1, False), [])


# any floats of any n: NaN, infinities, zeros and values whose square overflows
wide = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e200, -1e-300]),
                 st.floats(allow_nan=True, allow_infinity=True))
# a field's value at the start, which must be finite for a run to take a step
wide_finite = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e-300, 1e-320]),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 5),
       atol=st.sampled_from([1e-12, 1e-3, 0.0, 1e-320]), rtol=st.sampled_from([1e-9, 1e-3, 0.5]))
def test_first_norm_matches_the_loop_for_any_n(data, n, atol, rtol):
    # the first-step norm sets the first step's size, which the second
    # stage's point shows; a zero atol at a zero component divides by 0
    f0 = data.draw(st.lists(wide_finite, min_size=n, max_size=n))
    y = data.draw(st.lists(wide, min_size=n, max_size=n))
    points = []

    def rhs(p):   # a constant field, recording where it is evaluated
        points.append(_bits(p))
        return list(f0)

    def margin(_p):
        return 1.0

    ref = _run(loop_integrate, rhs, y, 1.0, atol, rtol, 1, margin)[:2]
    ref_points = points[:]
    points.clear()
    assert _run(flow._generic_kernel(n), (rhs, margin), y, 1.0, atol, rtol, 1)[:2] == ref
    assert points == ref_points
    # the action's own kernel, whose field is its coefficients
    _assert_same_runs(_translation(n).rhs(f0), _translation(n)._margin, y, 1.0, atol, rtol, 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), h=st.one_of(step_size, st.just(-0.5), st.just(0.0)))
def test_interior_margins_match_the_loop_where_the_margin_raises_or_is_nan(data, h):
    # runs from points where the margin's terms raise or are NaN, and that
    # step to such points
    action = _odd_action()
    edge = st.one_of(st.just(0.0), st.just(1e120), st.just(-1e120), st.just(math.nan),
                     st.floats(min_value=-20.0, max_value=20.0))
    y0 = data.draw(st.lists(edge, min_size=3, max_size=3))
    X = data.draw(st.lists(coefficient, min_size=2, max_size=2))
    _assert_same_runs(action.rhs(X), action._margin, y0, h, 1e-12, 1e-9, 3)


# ---------------------------------------------------------------------------
# whole runs of both kernels against the loop, on every action above


KERNEL_ACTIONS = {
    **{name: (lambda i=i: build(*SCENARIOS[i]).action) for i, name in enumerate(IDS)},
    "odd": _odd_action,
    **{f"stiff{n}": (lambda n=n: _stiff_action(n)) for n in range(1, 5)},
}


@functools.lru_cache(maxsize=None)
def _kernel_action(name):
    return KERNEL_ACTIONS[name]()


def test_kernels_match_the_loop():
    seen = set()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(KERNEL_ACTIONS)),
           tol=st.floats(-12.0, -4.0).map(lambda e: 10.0 ** e), max_steps=st.integers(1, 5),
           duration=st.one_of(st.floats(1e-3, 3.0), st.just(2e-14)),
           scale=st.sampled_from([1.0, 1.0, 1.0, 1e20]), wall=st.integers(-3, 4))
    def check(data, name, tol, max_steps, duration, scale, wall):
        action = _kernel_action(name)
        X = data.draw(st.lists(step_coefficient, min_size=action.dim_algebra,
                               max_size=action.dim_algebra))
        # far out, the stiff fields are large enough to collapse the first step
        y = [v * scale for v in _inside(action, data)]
        if 0 <= wall < len(y):   # next to a wall of the box, where a run soon escapes
            lo, hi = action.domain.box[wall]
            y[wall] = lo + 1e-3 if lo > -math.inf else hi - 1e-3
        rhs, margin = action.rhs(X), action._margin
        (status, t_end, _, steps, low), calls = _assert_same_runs(rhs, margin, y, duration, tol, tol,
                                                                  max_steps)
        if status != ESCAPED:
            seen.add(status)
        elif steps == 0:
            seen.add("the start's field is not finite" if low else "the start is outside")
        elif low and t_end == (calls[-1][1] if calls else "0x0.0p+0"):
            seen.add("collapse")
        elif len(calls) == steps:   # the escaping step was reported too
            seen.add("escape, truncated")
        if steps > len(calls) + (status == ESCAPED):
            seen.add("a retried step")
        if name.startswith("stiff"):
            # the plain functions the stiff action copies, whose margin can be NaN
            def stiff_margin(p):
                m = _stiff_margin(p)
                if m != m:
                    seen.add("a NaN margin")
                return m

            _assert_same_runs(_stiff_rhs, stiff_margin, y, duration, tol, tol, max_steps)

    check()
    # an escape within five steps is rare here; the test below makes sure of one
    assert seen - {"escape, truncated"} == {
        COMPLETE, STEP_LIMIT, "collapse", "the start is outside", "the start's field is not finite",
        "a retried step", "a NaN margin"}, seen


@pytest.mark.parametrize("name, X, y, duration, max_steps", [
    ("annulus", [-1.0, 0.0], [0.5005, 0.0], 1.0, 5),     # into the inner wall
    ("annulus", [0.0, 1.0], [1.0, 6.2], 1.0, 5),         # along the outer angle wall
    # a line past the helicoid axis, the first of test_graze_lifts_are_unchanged
    ("helicoid", [1.3885844503675473, -0.08632935250536138],
     [-0.6966148691848703, 0.0433077274846184, 1.0048098438034014], 1.0, 60),
], ids=["annulus-radius", "annulus-angle", "helicoid-axis"])
def test_kernels_match_the_loop_where_a_run_escapes(name, X, y, duration, max_steps):
    action = _kernel_action(name)
    (status, _, _, steps, low), calls = _assert_same_runs(
        action.rhs(X), action._margin, y, duration, 1e-12, 1e-9, max_steps)
    assert (status, low) == (ESCAPED, False) and calls and steps < max_steps


# ---------------------------------------------------------------------------
# the margin scan: the commit test clears what it would commit unrefined


EPS = ESCAPE_MARGIN
margin_value = st.one_of(
    st.sampled_from([math.nan, -math.inf, math.inf, 0.0, -1.0, EPS, 100.0 * EPS, 1.0, 2.0]),
    st.floats(min_value=-1.0, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
)


def test_commit_test_is_the_first_phase_of_the_old_scan():
    hits = {True: 0, False: 0}

    @settings(max_examples=600, deadline=None)
    @given(ms=st.one_of(st.lists(margin_value, min_size=5, max_size=5),
                        st.lists(st.floats(0.6, 1.2), min_size=5, max_size=5),
                        st.lists(st.sampled_from([EPS, 100.0 * EPS, 150.0 * EPS, 190.0 * EPS]),
                                 min_size=5, max_size=5)),
           half=st.integers(-1, 4))
    def check(ms, half):
        if half >= 0:   # one margin at exactly half of max(ms), with max's NaN ordering
            ms[half] = 0.5 * max(ms)
        ms = tuple(ms)
        calls = []

        def margin(p):
            # the drawn samples at s = 0, 0.25, ..., 1, linear in between
            s = p[0]
            calls.append(s)
            i = min(int(s * 4.0), 3)
            return ms[i] if s * 4.0 == i else ms[i] + (ms[i + 1] - ms[i]) * (s * 4.0 - i)

        def interp(s):
            return [s]

        old = loop_scan_margins(margin, interp, ms[0], ms[4], EPS, 0.01, ESCAPE_TIME_WIDTH)
        assert calls[:3] == list(_SCAN[:-1])
        refined = calls[3:]
        calls.clear()
        found = _scan_margins(margin, interp, ms, 0.01)
        assert found == old
        assert calls == refined
        # a NaN first margin makes min(ms) NaN: such a step is committed unrefined too
        clear = found is None and not calls
        assert clear == (old is None and not refined)
        hits[clear] += 1

    check()
    assert hits[True] >= 50 and hits[False] >= 50, hits


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


def _lift_bits(res) -> str:
    """A lift's fields but its path, then its resolved trace; a float's repr keeps its bits."""
    return repr([getattr(res, f) for f in res._fields if f != "path"] + [res.trace])


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0), turns=st.floats(0.01, 2.0),
       chords=st.integers(1, 300), clockwise=st.booleans())
def test_circle_paths_equal_their_segment_object_paths(x, y, turns, chords, clockwise):
    # circle_loop_path hands GPath its chord columns; the chords as LinearSegs give the same bits
    start = (0.5, -0.5)
    path = circle_loop_path(start, (x, y), turns, chords, clockwise)
    ref = GPath(AbelianGroup(2), start,
                [LinearSeg(d, 1.0) for d in loop_circle_chords((x, y), turns, chords, clockwise)])
    n = ref.n_segments
    assert path.n_segments == n
    assert _bits(path.widths) == _bits(ref.widths)
    assert _bits(path._bounds) == _bits(ref._bounds)
    for got, want in zip(path._velocities, ref._velocities, strict=True):
        assert _bits(got) == _bits(want)
    ks, fracs = [k for k in range(n) for _ in range(3)], [0.0, 0.375, 1.0] * n
    points = zip(lift._path_points(path, ks, fracs), lift._path_points(ref, ks, fracs), strict=True)
    assert all(_bits(got) == _bits(want) for got, want in points)
    assert _bits(path.endpoint()) == _bits(ref.endpoint())
    assert ([_bits((*s.delta, s.duration)) for s in path.segments]
            == [_bits((*s.delta, s.duration)) for s in ref.segments])
    action, x0 = build("example6_helicoid").action, (x, y, 0.7)
    assert _lift_bits(lift_path(action, path, x0)) == _lift_bits(lift_path(action, ref, x0))


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
        assert _bits([col[k] for col in path._prefix]) == _bits(g)
        total = (np.asarray(s.delta, dtype=float) if isinstance(s, LinearSeg)
                 else np.asarray(s.X, dtype=float) * float(s.duration))
        g = G.mul(g, total)
    assert _bits(path.endpoint()) == _bits(g)
    # trace rows resolved together equal base + frac * vec row by row
    rows = _fraction_rows(data, count)
    resolved = _resolve(path, rows)
    assert _bits(resolved[0][1]) == _bits(path.start)
    for (_, k, frac, _), (_, g_row, _) in zip(rows[1:], resolved[1:]):
        assert _bits(g_row) == _bits([p[k] + frac * v[k] for p, v in zip(path._prefix, path._vectors)])


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
        ref = path._prefix[k] @ G.exp_segment([col[k] for col in path._vectors], frac)
        assert _bits(g_row.ravel()) == _bits(ref.ravel())


def test_ragged_segments_are_a_path_error():
    G = AbelianGroup(2)
    with pytest.raises(PathError):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), LinearSeg((1.0,), 1.0)])
    with pytest.raises(PathError):
        GPath(G, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0), LinearSeg(((1.0, 2.0), 0.0), 1.0)])


# ---------------------------------------------------------------------------
# loop_to_group


def _rank_one_solve(St, cdot):
    """The one singular value |St| of a single row or column, and the least-norm solution."""
    peak = np.abs(St).max()
    sigma = peak * np.sqrt(np.square(St / peak).sum())
    return np.array([sigma]), (St.T / sigma) @ (cdot / sigma)


def _svd_solve(St, cdot):
    U, sv, Vt = np.linalg.svd(St, full_matrices=False)
    return sv, Vt.T @ ((U.T @ cdot) / sv)


def loop_velocity_at(action, frame, point, cdot, svd_only=False):
    """One node's frame decomposition and checks, as the node loop did.

    A single row or column is solved by its norm, as the stacked solve does,
    unless ``svd_only``; any other node matrix by its own SVD.
    """
    if action.margin(point) <= 0.0:
        raise LoopGeometryError(f"loop leaves the domain near {list(point)}")
    St = (frame @ action.field_matrix(point)).T
    solve = _rank_one_solve if min(St.shape) == 1 and not svd_only else _svd_solve
    sv, f = solve(St, cdot)
    if not sv[-1] > 0.0 or sv[0] / sv[-1] > FRAME_CONDITION_LIMIT:
        raise FrameConditionError("frame is ill-conditioned on the loop")
    res = float(np.linalg.norm(St @ f - cdot))
    if res > ORBIT_RESIDUAL_REL * float(np.linalg.norm(cdot)) + 1e-14:
        raise LoopOutsideOrbitError("loop velocity leaves the frame span")
    return f @ frame


def loop_sub_chords(action, frame, pts, substeps, svd_only=False):
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
            X_lo = loop_velocity_at(action, frame, lo, cdot, svd_only)
            X_hi = loop_velocity_at(action, frame, hi, cdot, svd_only)
            rate = 0.5 * (X_lo + X_hi) + (_MAGNUS4 * dt) * action.algebra.bracket(X_lo, X_hi)
            out.append((tuple(rate), dt))
    return out


def _assert_sub_chords_match_the_loop(action, frame, pts, substeps):
    hol = loop_to_group(action, frame, pts, pts[0], closed=False, substeps=substeps)
    got = [(s.X, s.duration) for s in hol.path.segments]
    ref = loop_sub_chords(action, frame, pts, substeps)
    assert [(_bits(X), dur.hex()) for X, dur in got] == [(_bits(X), dur.hex()) for X, dur in ref]


_AFFINE_FRAMES = [((1.0, 0.0),), ((0.0, 1.0),), ((1.0, 0.0), (0.0, 1.0))]


def _affine_walk(x, logs):
    return [(x * math.exp(v),) for v in np.cumsum([0.0] + logs)]


@settings(max_examples=40, deadline=None)
@given(frame=st.sampled_from(_AFFINE_FRAMES),
       x=st.floats(0.5, 2.0), logs=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=30),
       substeps=st.integers(1, 4))
def test_affine_walk_sub_chords_match_the_loop(frame, x, logs, substeps):
    _assert_sub_chords_match_the_loop(build("affine_line").action, frame, _affine_walk(x, logs),
                                      substeps)


@settings(max_examples=25, deadline=None)
@given(r=st.floats(0.5, 2.0), phase=st.floats(-math.pi, math.pi), turns=st.floats(0.05, 1.0),
       chords=st.integers(3, 40), substeps=st.integers(1, 4))
def test_helicoid_loop_sub_chords_match_the_loop(r, phase, turns, chords, substeps):
    th = phase + 2.0 * math.pi * turns * np.arange(chords + 1) / chords
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(chords + 1)])
    _assert_sub_chords_match_the_loop(build("example6_helicoid").action, ((1.0, 0.0), (0.0, 1.0)),
                                      pts, substeps)


def _helicoid_line(frame, start, steps):
    """Points at z = 0 along the one frame field, which is constant there; steps may turn back."""
    (a, b), = frame
    return [(start[0] + a * t, start[1] + b * t, 0.0) for t in np.cumsum([0.0] + steps)]


@st.composite
def _rank_one_walks(draw):
    """An affine walk under any frame, or a helicoid line under a one-field frame."""
    if draw(st.booleans()):
        frame = draw(st.sampled_from(_AFFINE_FRAMES))
        logs = draw(st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=30))
        return "affine_line", frame, _affine_walk(draw(st.floats(0.5, 2.0)), logs)
    frame = draw(st.sampled_from(_AFFINE_FRAMES[:2]))
    start = (draw(st.floats(1.0, 3.0)), draw(st.floats(0.8, 1.2)))
    steps = draw(st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=30))
    return "example6_helicoid", frame, _helicoid_line(frame, start, steps)


@settings(max_examples=60, deadline=None)
@given(walk=_rank_one_walks(), substeps=st.integers(1, 4))
def test_rank_one_nodes_agree_with_their_svd(walk, substeps):
    key, frame, pts = walk
    action = build(key).action
    hol = loop_to_group(action, frame, pts, pts[0], closed=False, substeps=substeps)
    ref = loop_sub_chords(action, frame, pts, substeps, svd_only=True)
    for seg, (X, dur) in zip(hol.path.segments, ref, strict=True):
        assert seg.duration == dur
        assert np.max(np.abs(np.subtract(seg.X, X))) <= 1e-13 * np.max(np.abs(X))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_rank_one_nodes_take_frames_whose_squares_leave_the_float_range(scale):
    # |M|^2 underflows to 0 or overflows to inf, yet |M| and the solution are finite
    affine = build("affine_line").action
    pts = _affine_walk(1.0, [0.1, -0.2, 0.05])
    for frame in _AFFINE_FRAMES:
        ref = loop_to_group(affine, frame, pts, pts[0], closed=False).element
        got = loop_to_group(affine, np.multiply(frame, scale), pts, pts[0], closed=False).element
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_only_node_matrices_of_rank_above_one_take_an_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    affine = build("affine_line").action
    pts = _affine_walk(1.0, [0.1, -0.2, 0.05])
    for frame in _AFFINE_FRAMES:
        loop_to_group(affine, frame, pts, pts[0], closed=False)
    helicoid = build("example6_helicoid").action
    for frame in (((1.0, 0.0),), ((0.0, 1.0),)):
        pts = _helicoid_line(frame, (1.0, 1.0), [0.1, -0.2, 0.05])
        loop_to_group(helicoid, frame, pts, pts[0], closed=False)
    assert calls == []
    th = 0.4 + 2.0 * math.pi * np.arange(9) / 8
    pts = np.column_stack([1.2 * np.cos(th), 1.2 * np.sin(th), np.zeros(9)])
    loop_to_group(helicoid, ((1.0, 0.0), (0.0, 1.0)), pts, pts[0], closed=False)
    assert calls == [(64, 3, 2)]


# ---------------------------------------------------------------------------
# whole lifts, pinned to values recorded from the index-loop implementation and,
# as sha256 hashes, from the one-phase margin scan with the eager interpolant


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
     ("escaped", (-3.215530863465944e-05, 6.498060188480076e-07, 0.9635942314735002),
      0.5016498143905647, 0.006665935421978297, 50)),
    ((-0.7314060316960784, 0.23148621079414924), (1.9322645523468012, -0.6114092241410618),
     -0.8835583278973993,
     ("complete", (1.2008585206507223, -0.37992301334691236, -20.443946847757605),
      None, -0.4999828361713236, 171)),
])
def test_graze_lifts_are_unchanged(p0, delta, z0, expected):
    helicoid = build("example6_helicoid").action
    path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)])
    res = lift_path(helicoid, path, (p0[0], p0[1], z0))
    assert (res.status, res.endpoint_m, res.escape_time, res.winding, res.steps) == expected


def _digest(h, *values):
    """Feed floats as ``float.hex``, other leaves as ``repr``, nested sequences in order."""
    for v in values:
        if isinstance(v, float):
            h.update(v.hex().encode())
        elif v is None or isinstance(v, (str, bool, int)):
            h.update(repr(v).encode())
        else:
            _digest(h, *v)
        h.update(b",")


def test_circle_lift_bytes_are_unchanged():
    helicoid = build("example6_helicoid").action
    x0 = (1.3 * math.cos(0.7), 1.3 * math.sin(0.7), -1.1)
    res = lift_path(helicoid, circle_loop_path((0.0, 0.0), x0[:2], turns=1.0), x0)
    assert (res.status, res.steps, len(res.rows)) == ("complete", 4096, 4097)
    h = hashlib.sha256()
    _digest(h, res.endpoint_m, res.winding, res.steps, res.rows)
    assert h.hexdigest() == "470e8cf4b7f71f6c4b5c2c79c1db75fde0d7c7bf5fbc41d3b424209920e5b462"


def graze_lines():
    """200 seeded lines ``(p0, delta, z0)`` past the helicoid axis."""
    rng = random.Random(2024)
    for _ in range(200):
        # a line passing the axis at log-uniform distance d, from either side
        d = math.exp(rng.uniform(math.log(1e-6), math.log(1e-1)))
        psi = rng.uniform(-math.pi, math.pi)
        u = (math.cos(psi), math.sin(psi))
        side = rng.choice((-1.0, 1.0))
        before, after = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        p0 = (-side * d * u[1] - before * u[0], side * d * u[0] - before * u[1])
        delta = ((before + after) * u[0], (before + after) * u[1])
        z0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        yield p0, delta, z0


def test_graze_lift_bytes_are_unchanged():
    helicoid = build("example6_helicoid").action
    h = hashlib.sha256()
    statuses = []
    for p0, delta, z0 in graze_lines():
        path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)])
        res = lift_path(helicoid, path, (*p0, z0))
        statuses.append(res.status)
        _digest(h, res.status, res.escape_time, res.endpoint_m, res.low_confidence, res.steps,
                res.rows)
    assert (statuses.count("complete"), statuses.count("escaped")) == (144, 56)
    assert h.hexdigest() == "816325ac4aab201b8a18f5d730829f440ed0545843df85d52094cdb420f365c4"


def _graze_oracle(p0, delta, z0):
    """A graze line's closed-form lift: ``("escaped", t)``, ``("complete", z, turns)`` or None.

    The margin is the squared distance r^2 to the axis, and the line comes
    within d of it; a line with d^2 within a factor 2 of ``ESCAPE_MARGIN``
    either way has no verdict the tolerances decide (None).  An escaping
    line leaves at the first root of |p0 + t delta|^2 = eps; a complete one
    winds by the angle its ends subtend at the axis.
    """
    eps = ESCAPE_MARGIN
    d2 = (p0[0] * delta[1] - p0[1] * delta[0]) ** 2 / (delta[0] ** 2 + delta[1] ** 2)
    if 0.5 * eps < d2 < 2.0 * eps:
        return None
    if d2 <= 0.5 * eps:
        a = delta[0] ** 2 + delta[1] ** 2
        b = 2.0 * (p0[0] * delta[0] + p0[1] * delta[1])
        c = p0[0] ** 2 + p0[1] ** 2 - eps
        # c > 0 > b, so the smaller root is the stable 2c / (-b + sqrt)
        return "escaped", 2.0 * c / (-b + math.sqrt(b * b - 4.0 * a * c))
    p1 = (p0[0] + delta[0], p0[1] + delta[1])
    dtheta = math.atan2(p0[0] * p1[1] - p0[1] * p1[0], p0[0] * p1[0] + p0[1] * p1[1])
    return "complete", oracle_z(1.0, z0, dtheta), dtheta / math.tau


def test_graze_lifts_meet_the_closed_form():
    # bounds from the tolerances (rel 1e-9, escape bracket ESCAPE_TIME_WIDTH),
    # as perfbench's graze oracle sets them, not from observed errors
    helicoid = build("example6_helicoid").action
    worst = {"z": 0.0, "winding": 0.0, "escape_time": 0.0}
    checked = 0
    for p0, delta, z0 in graze_lines():
        expected = _graze_oracle(p0, delta, z0)
        if expected is None:
            continue
        checked += 1
        res = lift_path(helicoid, GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)]),
                        (*p0, z0))
        assert res.status == expected[0], (p0, delta, z0)
        if res.status == "escaped":
            worst["escape_time"] = max(worst["escape_time"], abs(res.escape_time - expected[1]))
        else:
            worst["z"] = max(worst["z"], abs(res.endpoint_m[2] - expected[1]) / abs(expected[1]))
            worst["winding"] = max(worst["winding"], abs(res.winding - expected[2]))
    assert checked == 187
    assert worst["z"] <= 1e-6 and worst["winding"] <= 1e-9, worst
    assert worst["escape_time"] <= ESCAPE_TIME_WIDTH, worst


@pytest.mark.xfail(strict=True, reason="at rel_tol = abs_tol = 1e-4 this line ends complete in 32 "
                   "steps with z = 47.733, 23 % off, and low_confidence False: each step's error "
                   "estimate passes while the endpoint does not (ROADMAP items 1 and 4)")
def test_loose_tolerance_graze_line_meets_the_closed_form():
    helicoid = build("example6_helicoid").action
    p0, delta = (0.09361096894322748, -0.8158817092138324), (-0.21762414564659185, 1.8594338202151732)
    z0 = 1.6833601080978853
    _, z, _ = _graze_oracle(p0, delta, z0)
    res = lift_path(helicoid, GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)]), (*p0, z0),
                    IntegratorConfig(rel_tol=1e-4, abs_tol=1e-4))
    assert res.status == "complete" and abs(res.endpoint_m[2] - z) <= 0.05 * abs(z)


def test_graze_steps_do_not_see_saw(monkeypatch):
    # near the axis the error estimate grows along each line; a controller that
    # reacts only to the last error accepts a step, then rejects the next, over and over
    accepted = 0
    integrate = lift.integrate_autonomous

    def counting(rhs, y, duration, cfg, margin, on_step):
        def counted(*args):
            nonlocal accepted
            accepted += 1
            return on_step(*args)
        return integrate(rhs, y, duration, cfg, margin, counted)

    monkeypatch.setattr(lift, "integrate_autonomous", counting)
    helicoid = build("example6_helicoid").action
    attempts = 0
    for p0, delta, z0 in graze_lines():
        path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)])
        attempts += lift_path(helicoid, path, (*p0, z0)).steps
    assert attempts - accepted < 0.1 * attempts, (attempts, accepted)


# ---------------------------------------------------------------------------
# the dip searches that the margin's lower bound over the interpolant's hull
# proves futile are skipped: each scan is run both ways and must agree


def _run_both_scans(monkeypatch):
    """Make every margin scan run with and without the shortcut; return its tallies."""
    tally = {"searches": 0, "skips": 0}
    scan, golden = flow._scan_margins, flow._golden_min
    minima, bounds = [], []

    def search(fn, lo, hi):
        out = golden(fn, lo, hi)
        minima.append(out[1])
        return out

    def both(margin, interp, ms, h):
        # the full scan's margin has no lower bound; the fast scan's records each bound
        minima.clear()
        full = scan(lambda p: margin(p), interp, ms, h)
        searched = minima[:]
        minima.clear()
        bounds.clear()
        recorded = functools.partial(margin)
        lower = getattr(margin, "lower", None)
        if lower is not None:
            recorded.lower = lambda lo, hi: bounds.append(lower(lo, hi)) or bounds[-1]
        fast = scan(recorded, interp, ms, h)
        assert fast == full
        if searched:
            tally["searches"] += 1
            if not minima:   # skipped: the search committed, at a minimum above the bound
                tally["skips"] += 1
                assert full is None and searched[0] >= bounds[-1]
        return fast

    monkeypatch.setattr(flow, "_golden_min", search)
    monkeypatch.setattr(flow, "_scan_margins", both)
    return tally


def test_skipped_dip_searches_would_have_committed_on_the_graze_lines(monkeypatch):
    tally = _run_both_scans(monkeypatch)
    helicoid = build("example6_helicoid").action
    for p0, delta, z0 in graze_lines():
        lift_path(helicoid, GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)]), (*p0, z0))
    assert tally == {"searches": 2749, "skips": 2749}


def test_skipped_dip_searches_would_have_committed_near_the_axis(monkeypatch):
    # loose tolerances too: their long steps past the axis dip, and those are searched
    tally = _run_both_scans(monkeypatch)
    helicoid = build("example6_helicoid").action

    @settings(max_examples=60, deadline=None)
    @given(d=st.floats(math.log(1e-6), math.log(1e-1)).map(math.exp), psi=st.floats(-math.pi, math.pi),
           before=st.floats(0.3, 1.5), after=st.floats(0.3, 1.5), z0=st.floats(0.5, 2.0),
           tol=st.sampled_from([1e-9, 1e-6, 1e-4]))
    def check(d, psi, before, after, z0, tol):
        u = (math.cos(psi), math.sin(psi))
        p0 = (-d * u[1] - before * u[0], d * u[0] - before * u[1])
        path = GPath(helicoid.group, (0.0, 0.0), [LinearSeg(((before + after) * u[0],
                                                              (before + after) * u[1]), 1.0)])
        lift_path(helicoid, path, (*p0, z0), IntegratorConfig(rel_tol=tol, abs_tol=tol))

    check()
    assert tally["skips"] >= 100 and tally["searches"] - tally["skips"] >= 10, tally


def test_skipped_dip_searches_would_have_committed_on_drawn_steps(monkeypatch):
    # straight steps past the axis that the integrator did not choose: they dip,
    # cross and end within a few eps of it far more often than its own steps
    tally = _run_both_scans(monkeypatch)
    margin = build("example6_helicoid").action._margin
    hermite = _hermite(3)

    @settings(max_examples=500, deadline=None)
    @given(d2=st.floats(-1.0, 6.0).map(lambda e: EPS * 10.0 ** e),
           psi=st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]), st.floats(-math.pi, math.pi)),
           near=st.floats(-0.5, 1.5), ratio=st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
           h=st.floats(1e-6, 1.0))
    def check(d2, psi, near, ratio, h):
        # the line at distance d = sqrt(d2) from the axis, nearest at step fraction
        # `near`, over a length of ratio * d
        u, d = (math.cos(psi), math.sin(psi)), math.sqrt(d2)
        length = ratio * d
        y0 = [-d * u[1] - near * length * u[0], d * u[0] - near * length * u[1], 1.0]
        y1 = [y0[0] + length * u[0], y0[1] + length * u[1], 1.0]
        f = [length * u[0] / h, length * u[1] / h, 0.0]
        # the margins a kernel reads along the step: at the interpolant's scan points and at its end
        interp = hermite(y0, f, y1, f, h)
        ms = (margin(y0), *[margin(interp(s)) for s in _SCAN[:-1]], margin(y1))
        if ms[0] > EPS:   # a scan starts inside
            flow._scan_margins(margin, interp, ms, h)

    check()
    assert tally["skips"] >= 50 and tally["searches"] - tally["skips"] >= 50, tally


def test_graze_margin_calls_are_pinned():
    # 203,206 when every dip search ran; the skipped ones made 42 calls each
    helicoid = build("example6_helicoid").action
    margin = helicoid._margin
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return margin(p)

    counted.lower = getattr(margin, "lower", None)
    helicoid._margin = counted
    for p0, delta, z0 in graze_lines():
        lift_path(helicoid, GPath(helicoid.group, (0.0, 0.0), [LinearSeg(delta, 1.0)]), (*p0, z0))
    assert calls == 87_748


def test_coarse_circle_windings_are_unchanged():
    # chord polygons of 3-8 chords per turn at loose tolerances: steps that turn
    # by a quarter turn or more, which the winding fold subdivides (22 times
    # on this set when the hash was recorded; default tolerances almost never do)
    helicoid = build("example6_helicoid").action
    rng = random.Random(2026)
    h = hashlib.sha256()
    for _ in range(300):
        r, phase, z0 = rng.uniform(0.3, 2.0), rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0)
        tol = 10.0 ** rng.uniform(-4.0, -2.0)
        chords, turns, cw = rng.randint(3, 8), rng.choice((0.5, 1.0, 2.0)), rng.random() < 0.5
        x0 = (r * math.cos(phase), r * math.sin(phase), z0)
        path = circle_loop_path((0.0, 0.0), x0[:2], turns, chords, cw)
        res = lift_path(helicoid, path, x0, IntegratorConfig(rel_tol=tol, abs_tol=tol))
        _digest(h, res.status, res.winding, res.steps, res.rows)
    assert h.hexdigest() == "b75658063c65e044b9a6a3a88caaa657d462bff8a3cb869bc25678b1f22cadd2"


def test_loop_to_group_bytes_are_unchanged():
    # seeded affine_line walks under the T, D and {T, D} frames, then one
    # helicoid circle: the group products and the re-lift residuals
    affine = build("affine_line").action
    rng = random.Random(2025)
    h = hashlib.sha256()
    for frame in (((1.0, 0.0),), ((0.0, 1.0),), ((1.0, 0.0), (0.0, 1.0))):
        for _ in range(4):
            x = rng.uniform(0.5, 2.0)
            pts = [x]
            for _ in range(rng.randrange(16, 48)):
                x *= math.exp(rng.gauss(0.0, 0.05))
                pts.append(x)
            hol = loop_to_group(affine, frame, [[p] for p in pts], [pts[0]], closed=False)
            _digest(h, hol.element.ravel().tolist(), hol.round_trip_residual)
    helicoid = build("example6_helicoid").action
    th = 0.4 + 2.0 * math.pi * np.arange(49) / 48
    pts = np.column_stack([1.2 * np.cos(th), 1.2 * np.sin(th), np.zeros(49)])
    pts[-1] = pts[0]
    hol = loop_to_group(helicoid, ((1.0, 0.0), (0.0, 1.0)), pts, pts[0])
    _digest(h, hol.element, hol.round_trip_residual)
    assert h.hexdigest() == "bbc1755a003734e021f0a4335a707d4dcc53b3dfb1b30377db2c84272e40e362"
