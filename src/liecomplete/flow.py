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
same steps.  The whole run of one call is generated as straight-line Python
with one local per component (:func:`_kernel`): the first step size, the
stages, the error test, the margins at the interpolant's interior samples
and at the step's end, the commit test and the controller.  The caller
supplies the field and the margin at a point as source lines, and the
components that are constant along the run, whose stage sums are folded out
of the loop.  Every kernel is ``integrate(args, y0, duration, atol, rtol,
max_steps, on_step)`` and unpacks ``args`` into locals on its first line.
An action's own kernel inlines its contraction, with the subtrees its
components share computed once per stage, and its domain margin, whose
samples along a step set only the coordinates the margin reads.
``GAction`` generates it once per set of non-zero coefficients, as the
attribute ``kernel`` of the pattern's contraction ``func``; a segment's rhs
is ``partial(func, *coefficients)``, and its ``args`` are the kernel's.
The generic kernel, generated once per state dimension, takes ``args =
(rhs, margin)`` and calls them at whole points.  The lazy cubic Hermite
interpolant (:func:`_hermite`) is generated once per state dimension too, and
bound to each step's data by ``functools.partial``; the margin scan reads the
step from it alone, and the caller's ``on_step`` gets it with the step's times
and end, from which a lift records its trace rows and its winding.  Escape from the
open domain is detected by one scan of the domain margin along each accepted
step: the run's commit test commits the step at once when none of the five
samples (ends plus interior) is near the escape level ``ESCAPE_MARGIN`` or
well below the others, and hands the rest to :func:`_scan_margins`, which
refines them by a golden-section dip search and the escape search.  A step
whose margin dips well below both of its ends is retried so that it ends at
the dip, so fast transits past a thin excluded set are not stepped over.  The escape time is refined by bisection on the margin against
the escape threshold, to a bracket ``ESCAPE_TIME_WIDTH`` wide.  Every
retried step, whether a stage failed, the error test failed or the margin
dipped, shrinks the step size in one place, which also ends the run as a
low-confidence escape once the size falls below ``STEP_COLLAPSE``.

A dip search is skipped, with the same outcome, when the margin has the
attribute ``lower``, a lower bound over boxes (as the margin ``GAction``
generates has), and that bound over the Bernstein hull of the interpolant on
the search bracket (:func:`_hull`) shows that no sample there can fall below
either of the search's tests.

Flows of single fields and words of flows are lifts of one-parameter group
paths: :func:`liecomplete.lift.lift_path` over :meth:`liecomplete.lift.GPath.word`.

References for the tableau: Dormand & Prince (1980), the standard RK5(4)7M
coefficients as used by ode45/RKDP.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from typing import Callable, Sequence

from ._record import InputError, Record, number, positive_int
from .expr import EVAL_ERRORS, _define, _names, _tuple

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

# the tableau's rows, weights and error weights as (coefficient, stage) pairs
_ROWS = (
    ((_A21, 1),),
    ((_A31, 1), (_A32, 2)),
    ((_A41, 1), (_A42, 2), (_A43, 3)),
    ((_A51, 1), (_A52, 2), (_A53, 3), (_A54, 4)),
    ((_A61, 1), (_A62, 2), (_A63, 3), (_A64, 4), (_A65, 5)),
)
_WEIGHTS = ((_B1, 1), (_B3, 3), (_B4, 4), (_B5, 5), (_B6, 6))
_ERRORS = ((_E1, 1), (_E3, 3), (_E4, 4), (_E5, 5), (_E6, 6), (_E7, 7))


@functools.lru_cache(maxsize=None)
def _hermite(n: int):
    """``hermite(y0, f0, y1, f1, h)``: the cubic Hermite interpolant of one step, for states of length n.

    It returns ``partial(interp, y0, f0, y1, f1, h)``, the interpolant as a
    function of the step fraction s in [0, 1], of one function ``interp(y0,
    f0, y1, f1, h, s)`` generated per n, which reads the vectors when
    called; it is straight-line code with the same operations in the same
    order as an index loop over the components.
    """
    sums = ", ".join(f"a * p{i} + b * q{i} + c * r{i} + d * u{i}" for i in range(n))
    interp = _define("\n".join([
        "def interp(y0, f0, y1, f1, h, s):",
        *(f"    {_names(v, n)}= {name}" for v, name in zip("pqru", ("y0", "f0", "y1", "f1"))),
        "    s2 = s * s",
        "    a = s2 * (2.0 * s - 3.0) + 1.0",
        "    b = h * (s2 * (s - 2.0) + s)",
        "    c = s2 * (3.0 - 2.0 * s)",
        "    d = h * s2 * (s - 1.0)",
        f"    return [{sums}]",
    ]))["interp"]
    return functools.partial(functools.partial, interp)


def _kernel(n: int, head: list, contraction: Callable, const: dict, least: Callable) -> tuple:
    """``(lines, names)``: the source of one run of :func:`integrate_autonomous` for states of length n.

    ``names`` are the globals the source reads besides the expression
    globals.  The lines define ``integrate(args, y0, duration, atol, rtol,
    max_steps, on_step)``, whose body opens with ``head``, the lines that
    unpack ``args``.  They are built from the caller's pieces of the field
    and its margin at the point ``_v0, _v1, ...``: ``contraction(s)`` gives
    the lines that set ``k{s}_i`` of the components that move; ``const``
    maps the index of each component that reads no point, and so is the same
    at every stage, to its source, evaluated once before the loop along with
    its stage sums; and ``least(m)`` gives the lines that set ``m`` to the
    margin, and the margin samples along a step set only the ``_v{i}`` these
    lines name.  The margin that :func:`_scan_margins` is handed is
    ``_margin``, a local that ``head`` sets or a global.  The run builds
    ``f0`` and ``f1`` from its own locals.

    The loop is that of a step at a time: the first step size, the DP5
    stages, the error test, the margin scan, the commit test, the step
    size controller and the collapse test, as straight-line code with one
    local per component.  It does the same operations in the same order as
    an index loop over the components, and compares where that loop took the
    builtin ``min`` or ``max`` (which keep their first argument unless a
    later one is strictly below or above it), so it gives the same bits.
    Steps that the commit test does not clear go to :func:`_scan_margins`,
    looked up in this module at each such step.
    """
    idx = range(n)
    moving = [i for i in idx if i not in const]
    tokens = set(re.findall(r"\w+", "\n".join(least("m"))))
    read = [i for i in idx if f"_v{i}" in tokens]   # the coordinates the margin reads
    eps = repr(ESCAPE_MARGIN)

    def k(s, i):   # a constant component's stages all equal its first
        return f"k1_{i}" if i in const else f"k{s}_{i}"

    def lin(terms, i):
        return " + ".join(f"{c!r} * {k(s, i)}" if c > 0.0 else f"({c!r}) * {k(s, i)}"
                          for c, s in terms)

    def rhs_at(s, args):
        return [f"{_names('_v', n)}= {_tuple(args)}", *contraction(s)] if moving else []

    def margin_at(m, args):
        point = [f"{_tuple(f'_v{i}' for i in read)}= {_tuple(args[i] for i in read)}"] if read else []
        return [*point, *least(m)]

    def stage(s, row, i):
        # x + h * (a1 * k1 + ...); the first stage groups as x + (h * a21) * k1
        if len(row) == 1:
            return f"x{i} + h * {row[0][0]!r} * {k(1, i)}"
        if i in const:
            return f"x{i} + h * s{s}_{i}"
        return f"x{i} + h * ({lin(row, i)})"

    x, z = _names("x", n), _names("z", n)
    lines = [
        "def integrate(args, y0, duration, atol, rtol, max_steps, on_step):",
        *("    " + line for line in head),
        "    y = y0",
        f"    {_names('_v', n)}= y",
        *("    " + line for line in least("m_curr")),
        f"    if m_curr <= {eps}:",
        f"        return {ESCAPED!r}, 0.0, tuple(y), 0, False",
        *(f"    k1_{i} = {const[i]}" for i in const),
        "    try:",
        *("        " + line for line in (contraction(1) if moving else [])),
        f"        if not ({' and '.join(f'_isfinite(k1_{i})' for i in idx)}):",
        "            raise ValueError",
        "    except _EVAL_ERRORS:",
        "        # in-domain but the field is not evaluable: nothing can move",
        f"        return {ESCAPED!r}, 0.0, tuple(y), 0, True",
        f"    f0 = [{', '.join(f'k1_{i}' for i in idx)}]",
        f"    {x}= y",
    ]
    for i in const:   # the sums of a component that reads no point
        if moving:   # its stages are evaluated only for the components that move
            lines += [f"    s{s}_{i} = {lin(row, i)}" for s, row in enumerate(_ROWS[1:], start=3)]
        lines += [f"    w{i} = {lin(_WEIGHTS, i)}", f"    q{i} = {lin(_ERRORS, i)}"]
    squares = " + ".join(f"(k1_{i} / (atol + rtol * abs(x{i}))) ** 2" for i in idx)
    lines += [
        # the first trial step is where a solution whose higher derivatives are
        # the size of f0 would meet the tolerance (Hairer, Norsett & Wanner's h1)
        "    try:",
        f"        d1 = _sqrt(({squares}) / {n})",
        "    except OverflowError:   # a component's scaled square passes the float range",
        "        d1 = _inf",
        "    h = duration",
        "    if 0.0 < d1 < _inf:",
        "        h1 = (0.01 / d1) ** 0.2",
        "        if h1 < duration:",
        "            h = h1",
        "    t = 0.0",
        "    steps = 0",
        "    h_acc = err_acc = None",
        "    while steps < max_steps:",
        "        remaining = duration - t",
        "        if remaining <= 0.0:",
        f"            return {COMPLETE!r}, t, ({x}), steps, False",
        "        if remaining < h:",
        "            h = remaining",
        "        steps += 1",
        "        try:",
    ]
    step = [line for s, row in enumerate(_ROWS, start=2)
            for line in rhs_at(s, [stage(s, row, i) for i in idx])]
    ends = (f"x{i} + h * w{i}" if i in const else f"x{i} + h * ({lin(_WEIGHTS, i)})" for i in idx)
    step += [f"{z}= {_tuple(ends)}", *rhs_at(7, [f"z{i}" for i in idx])]
    for i in idx:
        step += [
            f"a = abs(x{i})",
            f"b = abs(z{i})",
            f"e{i} = h * {f'q{i}' if i in const else f'({lin(_ERRORS, i)})'}"
            " / (atol + rtol * (b if b > a else a))",
        ]
    step.append(f"err = _sqrt(({' + '.join(f'e{i} * e{i}' for i in idx)}) / {n})")
    lines += ["            " + line for line in step]
    accept = [f"y1 = [{z}]", f"f1 = [{', '.join(k(7, i) for i in idx)}]"]
    for j, s in enumerate(_SCAN[:-1]):
        # the interpolant at s with the weights that do not involve h folded to
        # literals: the same floats as hermite(...)(s)
        s2 = s * s
        a, c = s2 * (2.0 * s - 3.0) + 1.0, s2 * (3.0 - 2.0 * s)
        accept += [f"b = h * {s2 * (s - 2.0) + s!r}", f"d = h * {s2!r} * ({s - 1.0!r})",
                   *margin_at(f"m{j}", [f"{a!r} * x{i} + b * k1_{i} + {c!r} * z{i} + d * {k(7, i)}"
                                        for i in idx])]
    accept += [*margin_at("m3", [f"z{i}" for i in idx]), "mn = mx = m_curr"]
    for j in range(4):
        accept += [f"if m{j} < mn:", f"    mn = m{j}", f"if m{j} > mx:", f"    mx = m{j}"]
    accept += [
        "interp = _hermite(y, f0, y1, f1, h)",
        # the commit test: _scan_margins would find no crossing and no reason
        # to refine in a step that passes it, and return None with no margin call
        f"if mn > {eps} and not (mn < 0.5 * mx or mn < {100.0 * ESCAPE_MARGIN!r}):",
        "    found = None",
        "else:",
        "    found = _flow._scan_margins(_margin, interp, (m_curr, m0, m1, m2, m3), h)",
        "if found is None:",
        "    on_step(t, t + h, y1, interp)",
        "    t += h",
        "    if h == remaining:   # the last step",
        f"        return {COMPLETE!r}, t, ({z}), steps, False",
        "    y, f0, m_curr = y1, f1, m3",
        f"    {x}= {z}",
        *([f"    {_tuple(f'k1_{i}' for i in moving)}= {_tuple(f'k7_{i}' for i in moving)}"]
          if moving else []),
        "    if err == 0.0:",
        "        fac = 5.0",
        "    else:",
        "        g = 0.9 * err ** -0.2",
        "        fac = g if g > 0.2 else 0.2",
        "        if not fac < 5.0:",
        "            fac = 5.0",
        "        if h_acc is not None:   # the predictive factor; err ** 2 could underflow to 0",
        "            g = 0.9 * (h / h_acc) * err_acc ** 0.2 / err ** 0.4",
        "            if not g > 0.2:",
        "                g = 0.2",
        "            if g < fac:",
        "                fac = g",
        "    h_acc = h",
        "    err_acc = 0.01 if 0.01 > err else err",
        "    h *= fac",
        "    continue",
        "if found[0] == 'escape':",
        "    _, s_cut, s_mid, low = found",
        "    y_cut = interp(s_cut)",
        "    if s_cut > 0.0:",
        "        on_step(t, t + s_cut * h, y_cut, lambda s, _i=interp, _c=s_cut: _i(s * _c))",
        f"    return {ESCAPED!r}, t + s_mid * h, tuple(y_cut), steps, low",
        "# a thin pass the step may have jumped: end the retried step at it",
        "shrink = found[1]",
    ]
    finite = " and ".join(["_isfinite(err)"] + [f"_isfinite(z{i})" for i in idx])
    lines += [
        "        except _EVAL_ERRORS:",
        "            shrink = 0.5",
        "        else:",
        f"            if not ({finite}):",
        "                shrink = 0.5",
        "            elif err > 1.0:",
        "                g = 0.9 * err ** -0.2",
        "                shrink = g if g > 0.2 else 0.2",
        "            else:   # accepted: check the margin along the step before committing",
        *("                " + line for line in accept),
        "        h *= shrink",
        f"        if h < {STEP_COLLAPSE!r}:",
        f"            return {ESCAPED!r}, t, ({x}), steps, True",
        f"    return {STEP_LIMIT!r}, t, ({x}), steps, False",
    ]
    return lines, {"_flow": sys.modules[__name__], "_hermite": _hermite(n)}


@functools.lru_cache(maxsize=None)
def _generic_kernel(n: int):
    """The generic kernel for states of length n: :func:`_kernel` calling a plain ``rhs`` and ``margin``.

    Its ``args`` are ``(rhs, margin)``.  A result of ``rhs`` is unpacked
    into locals at once, so the list may be reused, and one of the wrong
    length is a field that cannot be evaluated.
    """
    point = f"[{', '.join(f'_v{i}' for i in range(n))}]"
    lines, names = _kernel(n, ["rhs, _margin = args"],
                           lambda s: [f"{_names(f'k{s}_', n)}= rhs({point})"],
                           {}, lambda m: [f"{m} = _margin({point})"])
    return _define("\n".join(lines), names)["integrate"]


# The Bernstein hull of a step's interpolant (Farouki & Rajan, CAGD 1988): its
# control points restricted to [lo, hi] are three convex combinations deep and
# within 17 u S of exact, and the computed interp(s) is within 8 u S of the
# exact cubic, with u = 2**-53 and S = |y0| + |h f0| + |y1| + |h f1| per
# component; the hull is widened by 64 u S, plus a floor for underflow.
_HULL_REL = 2.0 ** -47
_HULL_ABS = 1e-300


def _hull(interp, lo, hi):
    """``(los, his)``: bounds of each component of ``interp(s)`` for s in [lo, hi], within [0, 1].

    ``interp`` is ``_hermite(n)(y0, f0, y1, f1, h)``, a cubic with the Bernstein
    control points y0, y0 + h f0 / 3, y1 - h f1 / 3 and y1; those of its
    restriction to [lo, hi] are the blossom at (lo, lo, lo), (lo, lo, hi),
    (lo, hi, hi) and (hi, hi, hi), and lie within the hull widened by ``_HULL_REL``.
    """
    y0, f0, y1, f1, h = interp.args
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


def _scan_margins(margin, interp, ms, h: float):
    """Decide an accepted step from its margins ``ms`` at s = 0, 0.25, 0.5, 0.75, 1.

    Returns ``None`` when the step can be committed, with no margin call
    when none of ``ms`` is at or below the escape level, near it or well
    below the others (the run's commit test, which the kernels make before
    they call this); ``("dip", s)`` when the margin dips at step fraction
    ``s`` well below both ends of the step, which is then retried so that it
    ends at the dip; or ``("escape", s_lo, s_mid, low_confidence)`` when the margin
    crosses ``ESCAPE_MARGIN``, with ``s_lo`` the last fraction found inside and
    ``s_mid`` the middle of the final bisection bracket.

    When ``margin`` has the attribute ``lower``, its lower bound over a box,
    a dip search that this bound over the hull of ``interp`` proves would
    commit the step is skipped.
    """
    eps = ESCAPE_MARGIN
    mmin = min(ms)
    refine = mmin < 0.5 * max(ms) or mmin < 100.0 * eps
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
        lower = getattr(margin, "lower", None)
        if lower is not None and math.isfinite(ms[0]) and math.isfinite(ms[4]):
            bound = lower(*_hull(interp, lo, hi))
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
    as escaped; its attribute ``lower``, where it has one, is read by
    :func:`_scan_margins`.
    An ``rhs`` that ``GAction`` generates is ``partial(func, *coefficients)``,
    and ``func`` carries the attribute ``kernel``, a pair of the action's
    domain margin and the run with both inlined (:func:`_kernel`), which is
    called with ``rhs.args`` when ``margin`` is that margin.  Other
    callables, such as user code or wrappers, give the same bits in the
    generic kernel, called with ``(rhs, margin)``: it calls ``rhs`` at each
    stage and ``margin`` at the step's interpolant at s = 0.25, 0.5 and 0.75
    and at its end.  ``on_step(t0, t1, y1, interp)`` is called after each accepted (possibly
    escape-truncated) step, from time ``t0`` to the point ``y1`` at time
    ``t1``, with ``interp`` covering the reported sub-step.

    Returns ``(status, t_end, y_end, steps, low_confidence)``.
    """
    own = getattr(getattr(rhs, "func", None), "kernel", None)
    if own is not None and own[0] is margin:
        return own[1](rhs.args, y0, duration, cfg.abs_tol, cfg.rel_tol, cfg.max_steps, on_step)
    return _generic_kernel(len(y0))((rhs, margin), y0, duration, cfg.abs_tol, cfg.rel_tol,
                                    cfg.max_steps, on_step)
