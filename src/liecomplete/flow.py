"""The adaptive integrator behind every lift, with escape detection.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL.  After an
accepted step of size ``h`` with error ``err > 0`` the size is multiplied by
the standard factor ``min(5, max(0.2, 0.9 err^-1/5))`` (by 5 when ``err`` is
0); from the second accepted step of a call on, that factor is also held to
Gustafsson's predictive one, ``max(0.2, 0.9 (h / h_acc) (err_acc /
err^2)^1/5)``, with ``h_acc`` the size of the accepted step before and
``err_acc`` its error, at least 1e-2 (Gustafsson, ACM TOMS 20, 1994; Hairer &
Wanner, Solving ODEs II, IV.8, as in RADAU5).  Where the error grows along the
run, as on a pass near a field's singular set, the standard factor alone
accepts a step and rejects the next, over and over; the predictive one shrinks
the step before it is rejected.  Its state restarts with each call, so the
first step of every segment is decided by the standard factor alone, and a
single loop over a path's segments must reset it at every joint to take the
same steps.  Its step, first-step norm, lazy cubic Hermite interpolant and the
margins at the interpolant's interior samples and at the step's end are
generated as straight-line Python.  One generator emits the step in two forms
with the same bits: the generic one calls a plain ``rhs`` and is generated
once per state dimension; the other inlines an action's own contraction, with
the subtrees its components share computed once per stage, and ``GAction``
generates it on first use and hands it over as ``rhs.step``.  The margin scan
is generated only with an action's margin inlined (``margin.scan``); a plain
``margin`` is called at the points the interpolant gives, which are the same
floats.  Each committed step is handed to the caller's ``on_step``, from which
a lift records its trace rows and its winding.  Escape from the open domain is
detected by one scan of the domain margin along each accepted step: it commits
the step at once when none of the five samples (ends plus interior) is near
the escape level ``ESCAPE_MARGIN`` or well below the others, and refines the
rest by a golden-section dip search and the escape search.  A step whose
margin dips well below both of its ends is retried so that it ends at the dip,
so fast transits past a thin excluded set are not stepped over.  The escape
time is refined by bisection on the margin against the escape threshold, to a
bracket ``ESCAPE_TIME_WIDTH`` wide.  Every retried step, whether a stage
failed, the error test failed or the margin dipped, shrinks the step size in
one place, which also ends the run as a low-confidence escape once the size
falls below ``STEP_COLLAPSE``.

A dip search is skipped, with the same outcome, when the margin carries a
lower bound over boxes (``margin.lower``, as the margin ``GAction`` generates
does) and that bound over the Bernstein hull of the interpolant on the
search bracket (:func:`_hull`) shows that no sample there can fall below
either of the search's tests.

Flows of single fields and words of flows are lifts of one-parameter group
paths: :func:`liecomplete.lift.lift_path` over :meth:`liecomplete.lift.GPath.word`.

References for the tableau: Dormand & Prince (1980), the standard RK5(4)7M
coefficients as used by ode45/RKDP.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from ._record import InputError, Record, number, positive_int
from .expr import EVAL_ERRORS, _define

__all__ = [
    "IntegratorConfig",
    "COMPLETE",
    "ESCAPED",
    "STEP_LIMIT",
    "integrate_autonomous",
]

COMPLETE = "complete"
ESCAPED = "escaped"
STEP_LIMIT = "step_limit"

# Dormand-Prince 5(4) coefficients
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error coefficients: b - b_hat (4th order weights include the FSAL stage)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)

ESCAPE_MARGIN = 1e-9        # margin level treated as having left
ESCAPE_TIME_WIDTH = 1e-6    # bisection bracket width on the time axis
STEP_COLLAPSE = 1e-14       # controller collapse => low-confidence escape


class IntegratorConfig(Record):
    """Step-control knobs of lifts."""

    __slots__ = ("rel_tol", "abs_tol", "max_steps")

    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 1e-12,
                 max_steps: int = 1_000_000):
        rel_tol = number(rel_tol, InputError, "rel_tol must be positive and finite")
        abs_tol = number(abs_tol, InputError, "abs_tol must be positive and finite")
        for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
            if not 0.0 < tol < math.inf:
                raise InputError(f"{name} must be positive and finite")
        if rel_tol < 1e-14:
            raise InputError("rel_tol below 1e-14 is not resolvable in double precision")
        super().__init__(rel_tol, abs_tol, positive_int(max_steps, InputError, "max_steps"))


# margin scan sample points inside an accepted step
_SCAN = (0.25, 0.5, 0.75, 1.0)


def _tuple(items) -> str:
    """``a, b, ..., ``: the items with trailing commas, a target or a tuple of any length."""
    return "".join(f"{v}, " for v in items)


def _names(prefix: str, n: int) -> str:
    """``p0, p1, ..., p{n-1}, ``."""
    return _tuple(f"{prefix}{i}" for i in range(n))


def _unpack_ends(n: int) -> list:
    """Source lines binding the components of a step's y0, f0, y1, f1 to p_i, q_i, r_i, u_i."""
    return [f"{_names(v, n)}= {name}" for v, name in zip("pqru", ("y0", "f0", "y1", "f1"))]


def _lin(terms, i: int) -> str:
    """Source of ``c1 * k1_i + c2 * k2_i + ...`` for (coefficient, stage) pairs."""
    return " + ".join(
        f"{c!r} * {k}_{i}" if c > 0.0 else f"({c!r}) * {k}_{i}" for c, k in terms
    )


_ROWS = (
    ((_A21, "k1"),),
    ((_A31, "k1"), (_A32, "k2")),
    ((_A41, "k1"), (_A42, "k2"), (_A43, "k3")),
    ((_A51, "k1"), (_A52, "k2"), (_A53, "k3"), (_A54, "k4")),
    ((_A61, "k1"), (_A62, "k2"), (_A63, "k3"), (_A64, "k4"), (_A65, "k5")),
)
_WEIGHTS = ((_B1, "k1"), (_B3, "k3"), (_B4, "k4"), (_B5, "k5"), (_B6, "k6"))
_ERRORS = ((_E1, "k1"), (_E3, "k3"), (_E4, "k4"), (_E5, "k5"), (_E6, "k6"), (_E7, "k7"))


def _step_lines(n: int, inline=None) -> list:
    """Source lines of one DP5 step for states of length n.

    With ``inline`` None this is ``step(rhs, y, f0, h, atol, rtol)``, which
    calls ``rhs`` on a list at each stage.  Otherwise ``inline`` is ``(lines,
    comps)``: ``comps`` is the source of the n components of the rhs at the
    point ``_v0, _v1, ...``, which may read the temps that ``lines`` assign
    (the subtrees they share, computed once), and the step is ``step(y, f0,
    h, atol, rtol)`` with both in place of each call.

    It returns ``(y1, f1, err)``, with ``f1`` the rhs at ``y1`` and ``err``
    the RMS of the embedded error estimate scaled by ``atol + rtol *
    max(|y|, |y1|)``, or ``None`` when a stage raises one of ``EVAL_ERRORS``
    or gives a non-finite ``y1`` or ``err``.  Both forms are straight-line
    code with the same operations in the same order as an index loop over
    the components, so they give the same bits.
    """
    idx = range(n)

    def call(dest, args):
        if inline is None:
            return [f"{_names(dest, n)}= rhs([{', '.join(args)}])"]
        temps, comps = inline
        return [f"{_names('_v', n)}= {_tuple(args)}", *temps,
                f"{_names(dest, n)}= {_tuple(comps)}"]

    def stage(row, i):
        # x + h * (a1 * k1 + ...); the first stage groups as x + (h * a21) * k1
        if len(row) == 1:
            return f"x{i} + h * {row[0][0]!r} * k1_{i}"
        return f"x{i} + h * ({_lin(row, i)})"

    lines = [
        f"def step({'rhs, ' if inline is None else ''}y, f0, h, atol, rtol):",
        f"    {_names('x', n)}= y",
        f"    {_names('k1_', n)}= f0",
        "    try:",
    ]
    calls = [call(f"k{s}_", [stage(row, i) for i in idx]) for s, row in enumerate(_ROWS, start=2)]
    calls.append([f"{_names('z', n)}= {_tuple(f'x{i} + h * ({_lin(_WEIGHTS, i)})' for i in idx)}",
                  *call("k7_", [f"z{i}" for i in idx])])
    lines += ["        " + line for c in calls for line in c]
    for i in idx:
        lines += [
            f"        a = abs(x{i})",
            f"        b = abs(z{i})",
            f"        e{i} = h * ({_lin(_ERRORS, i)}) / (atol + rtol * (b if b > a else a))",
        ]
    return lines + [
        f"        err = _sqrt(({' + '.join(f'e{i} * e{i}' for i in idx)}) / {n})",
        "    except _EVAL_ERRORS:",
        "        return None",
        f"    if not ({' and '.join(['_isfinite(err)'] + [f'_isfinite(z{i})' for i in idx])}):",
        "        return None",
        f"    return [{', '.join(f'z{i}' for i in idx)}], [{', '.join(f'k7_{i}' for i in idx)}], err",
    ]


def _scan_lines(n: int, inline: Callable) -> list:
    """Source lines of ``scan(y0, f0, y1, f1, h)``, a margin's values along one step, inlined.

    ``inline(name)`` gives the source lines that set ``name`` to the margin
    at the point ``_v0, _v1, ...``, using no other name but ``v``.  The scan
    returns the margins at ``hermite(y0, f0, y1, f1, h)(s)`` for s = 0.25,
    0.5, 0.75, with the weights that do not involve h folded to literals, and
    at ``y1``: the same floats as the margin called at those points.
    """
    idx = range(n)

    def at(j, args):
        return [f"{_names('_v', n)}= {_tuple(args)}", *inline(f"m{j}")]

    lines = ["def scan(y0, f0, y1, f1, h):", *("    " + line for line in _unpack_ends(n))]
    for j, s in enumerate(_SCAN[:-1]):
        s2 = s * s
        a, c = s2 * (2.0 * s - 3.0) + 1.0, s2 * (3.0 - 2.0 * s)
        lines += [
            f"    b = h * {s2 * (s - 2.0) + s!r}",
            f"    d = h * {s2!r} * ({s - 1.0!r})",
            *("    " + line for line in at(j, [f"{a!r} * p{i} + b * q{i} + {c!r} * r{i} + d * u{i}"
                                              for i in idx])),
        ]
    return lines + ["    " + line for line in at(3, [f"r{i}" for i in idx])] + [
        "    return m0, m1, m2, m3"]


@functools.lru_cache(maxsize=None)
def _dp5_kernels(n: int):
    """The DP5 step ``step(rhs, y, f0, h, atol, rtol)`` of :func:`_step_lines` for states of length n.

    It calls its plain ``rhs``; an rhs that carries its own ``step`` (as
    those ``GAction`` generates do) has it inlined instead.
    """
    return _define("\n".join(_step_lines(n)))["step"]


@functools.lru_cache(maxsize=None)
def _hermite_kernels(n: int):
    """Generate the step interpolant and the first-step norm for states of length n.

    ``hermite(y0, f0, y1, f1, h)`` returns the cubic Hermite interpolant of
    one step as a function of the step fraction s in [0, 1], reading the
    vectors when called; ``first_norm(f0, y, atol, rtol)`` is the RMS of
    ``f0 / (atol + rtol * |y|)``.  Both are straight-line code with the same
    operations in the same order as an index loop over the components.
    """
    sums = ", ".join(f"a * p{i} + b * q{i} + c * r{i} + d * u{i}" for i in range(n))
    squares = " + ".join(f"(f0[{i}] / (atol + rtol * abs(y[{i}]))) ** 2" for i in range(n))
    lines = [
        "def hermite(y0, f0, y1, f1, h):",
        "    def interp(s):",
        *("        " + line for line in _unpack_ends(n)),
        "        s2 = s * s",
        "        a = s2 * (2.0 * s - 3.0) + 1.0",
        "        b = h * (s2 * (s - 2.0) + s)",
        "        c = s2 * (3.0 - 2.0 * s)",
        "        d = h * s2 * (s - 1.0)",
        f"        return [{sums}]",
        "    return interp",
        "",
        "def first_norm(f0, y, atol, rtol):",
        f"    return _sqrt(({squares}) / {n})",
    ]
    ns = _define("\n".join(lines))
    return ns["hermite"], ns["first_norm"]


# The Bernstein hull of a step's interpolant (Farouki & Rajan, CAGD 1988): its
# control points restricted to [lo, hi] are three convex combinations deep and
# within 17 u S of exact, and the computed interp(s) is within 8 u S of the
# exact cubic, with u = 2**-53 and S = |y0| + |h f0| + |y1| + |h f1| per
# component; the hull is widened by 64 u S, plus a floor for underflow.
_HULL_REL = 2.0 ** -47
_HULL_ABS = 1e-300


def _hull(y0, f0, y1, f1, h, lo, hi):
    """``(los, his)``: bounds of each component of ``hermite(y0, f0, y1, f1, h)(s)`` for s in [lo, hi].

    [lo, hi] lies within [0, 1].  The cubic's Bernstein control points are
    y0, y0 + h f0 / 3, y1 - h f1 / 3 and y1; those of its restriction to
    [lo, hi] are the blossom at (lo, lo, lo), (lo, lo, hi), (lo, hi, hi) and
    (hi, hi, hi), and lie within the hull widened by ``_HULL_REL``.
    """
    t = h / 3.0
    los, his = [], []
    for p, q, r, u in zip(y0, f0, y1, f1):
        b1, b2 = p + t * q, r - t * u
        l0, l1, l2 = p + lo * (b1 - p), b1 + lo * (b2 - b1), b2 + lo * (r - b2)
        g0, g1, g2 = p + hi * (b1 - p), b1 + hi * (b2 - b1), b2 + hi * (r - b2)
        ll0, ll1 = l0 + lo * (l1 - l0), l1 + lo * (l2 - l1)
        lh0, lh1 = l0 + hi * (l1 - l0), l1 + hi * (l2 - l1)
        hh0, hh1 = g0 + hi * (g1 - g0), g1 + hi * (g2 - g1)
        c0, c1 = ll0 + lo * (ll1 - ll0), ll0 + hi * (ll1 - ll0)
        c2, c3 = lh0 + hi * (lh1 - lh0), hh0 + hi * (hh1 - hh0)
        w = _HULL_REL * (abs(p) + abs(h * q) + abs(r) + abs(h * u)) + _HULL_ABS
        los.append(min(c0, c1, c2, c3) - w)
        his.append(max(c0, c1, c2, c3) + w)
    return los, his


def _golden_min(fn, lo: float, hi: float):
    """Golden-section minimum of fn over [lo, hi] in 40 iterations; returns (s, fn(s))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(40):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _scan_margins(margin, interp, ms, h: float, lower=None, y0=None, f0=None, y1=None, f1=None):
    """Decide an accepted step from its margins ``ms`` at s = 0, 0.25, 0.5, 0.75, 1.

    Returns ``None`` when the step can be committed, with no further margin
    call when none of ``ms`` is near the escape level or well below the
    others; ``("dip", s)`` when the margin dips at step fraction ``s`` well
    below both ends of the step, which is then retried so that it ends at
    the dip; or ``("escape", s_lo, s_mid, low_confidence)`` when the margin
    crosses ``ESCAPE_MARGIN``, with ``s_lo`` the last fraction found inside and
    ``s_mid`` the middle of the final bisection bracket.

    ``lower``, when given, is the margin's lower bound over a box
    (``margin.lower``), and ``y0, f0, y1, f1`` are the step's ends, from
    which ``interp`` is built: a dip search that this bound over the
    interpolant's hull proves would commit the step is skipped.
    """
    eps = ESCAPE_MARGIN
    mmin = min(ms)
    refine = mmin < 0.5 * max(ms) or mmin < 100.0 * eps
    if mmin > eps and not refine:
        return None
    ss = (0.0,) + _SCAN
    cross = None  # (s with margin > eps, s with margin <= eps)
    for i in range(1, 5):
        if ms[i] <= eps:
            cross = (ss[i - 1], ss[i])
            break
    if cross is None:
        if not refine:
            return None
        im = ms.index(mmin)
        lo = ss[max(0, im - 1)]
        hi = ss[min(4, im + 1)]
        # the search samples interp on [lo, hi] only, so its minimum is at least
        # the bound, and a bound that passes both of its tests commits as it would
        if lower is not None and math.isfinite(ms[0]) and math.isfinite(ms[4]):
            bound = lower(*_hull(y0, f0, y1, f1, h, lo, hi))
            if bound > eps and bound >= 0.5 * min(ms[0], ms[4]):
                return None
        s_star, m_star = _golden_min(lambda s: margin(interp(s)), lo, hi)
        if m_star <= eps:
            cross = (lo, s_star)
        elif m_star < 0.5 * min(ms[0], ms[4]):
            return ("dip", s_star)
        else:   # no dip worth a retry, or a NaN minimum
            return None

    # margin(s_lo) > eps >= margin(s_hi); the bracket is at most 0.5 wide and
    # each pass halves it, so the 1e-15 floor ends the search within 50 passes
    s_lo, s_hi = cross
    while not ((s_hi - s_lo) * h < ESCAPE_TIME_WIDTH and margin(interp(s_lo)) < 10.0 * eps):
        if s_hi - s_lo < 1e-15:
            return ("escape", s_lo, 0.5 * (s_lo + s_hi), True)
        mid = 0.5 * (s_lo + s_hi)
        if margin(interp(mid)) > eps:
            s_lo = mid
        else:
            s_hi = mid
    return ("escape", s_lo, 0.5 * (s_lo + s_hi), False)


def integrate_autonomous(
    rhs: Callable,
    y0: Sequence[float],
    duration: float,
    cfg: IntegratorConfig,
    margin: Callable,
    on_step: Callable,
):
    """Integrate y' = rhs(y) from the floats ``y0`` (not copied) over [0, duration] in the domain.

    ``margin`` maps a state to the signed distance proxy and must not
    raise (where it cannot be evaluated it returns ``-inf``, as the margin
    that ``GAction`` generates does); crossing ``ESCAPE_MARGIN`` ends the run
    as escaped.  A margin with the attribute ``lower(lo, hi)``, a lower bound
    of it over boxes, as that margin has, lets the scan skip the dip searches
    the bound proves futile.  An ``rhs`` with the attribute ``step`` and a
    margin with the attribute ``scan``, as those ``GAction`` generates have,
    bring their own DP5 step and margin scan with their arithmetic inlined
    (:func:`_step_lines`, :func:`_scan_lines`).  A plain callable, such as
    user code or a wrapper, gives the same bits: a plain ``rhs`` gets the
    generic step, which calls it, and a plain ``margin`` is called at the
    step's interpolant at s = 0.25, 0.5 and 0.75 and at its end.
    ``on_step(t0, t1, y1, interp)`` is called after each accepted (possibly
    escape-truncated) step, from time ``t0`` to the point ``y1`` at time
    ``t1``, with ``interp`` covering the reported sub-step; ``interp`` reads
    ``rhs`` results when called, so ``rhs`` must return a new list each time.

    Returns ``(status, t_end, y_end, steps, low_confidence)``.
    """
    n = len(y0)
    y = y0
    t = 0.0
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    hermite, first_norm = _hermite_kernels(n)
    step = getattr(rhs, "step", None) or functools.partial(_dp5_kernels(n), rhs)
    scan = getattr(margin, "scan", None)
    lower = getattr(margin, "lower", None)

    m_curr = margin(y)  # margin at the current point
    if m_curr <= ESCAPE_MARGIN:
        return ESCAPED, 0.0, tuple(y), 0, False

    try:
        f0 = rhs(y)
        if not all(map(math.isfinite, f0)):
            raise ValueError
    except EVAL_ERRORS:
        # in-domain but the field is not evaluable: nothing can move
        return ESCAPED, 0.0, tuple(y), 0, True

    # First trial step: where a solution whose higher derivatives are the size
    # of f0 would meet the tolerance (the h1 of Hairer, Norsett & Wanner,
    # Solving ODEs I, II.4).  A whole-span first step can pass the error test
    # while its true error is far larger, because the embedded estimate is
    # only asymptotic in h.
    try:
        d1 = first_norm(f0, y, atol, rtol)
    except OverflowError:   # a component's scaled square passes the float range
        d1 = math.inf
    h = min(duration, (0.01 / d1) ** 0.2) if 0.0 < d1 < math.inf else duration

    steps = 0
    h_acc = err_acc = None   # the last accepted step's size, and its error but at least 1e-2
    while steps < cfg.max_steps:
        remaining = duration - t
        if remaining <= 0.0:
            return COMPLETE, t, tuple(y), steps, False
        h = min(h, remaining)

        out = step(y, f0, h, atol, rtol)
        steps += 1
        # each attempt that is retried sets the factor h shrinks by, applied at the end
        if out is None:
            shrink = 0.5
        elif out[2] > 1.0:
            shrink = max(0.2, 0.9 * out[2] ** -0.2)
        else:
            # accepted: check the margin along the step before committing
            y1, k7, err = out
            interp = hermite(y, f0, y1, k7, h)
            if scan:
                ms = (m_curr, *scan(y, f0, y1, k7, h))
            else:
                ms = (m_curr, *[margin(interp(s)) for s in _SCAN[:-1]], margin(y1))
            found = _scan_margins(margin, interp, ms, h, lower, y, f0, y1, k7)
            if found is None:
                on_step(t, t + h, y1, interp)
                t += h
                if h == remaining:   # the last step
                    return COMPLETE, t, tuple(y1), steps, False
                y, f0, m_curr = y1, k7, ms[4]
                if err == 0.0:
                    fac = 5.0
                else:
                    fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
                    if h_acc is not None:   # the predictive factor; err ** 2 could underflow to 0
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
            # a thin pass the step may have jumped: end the retried step at it
            shrink = found[1]
        h *= shrink
        if h < STEP_COLLAPSE:
            return ESCAPED, t, tuple(y), steps, True
    return STEP_LIMIT, t, tuple(y), steps, False
