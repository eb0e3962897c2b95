"""Lift verdicts against an independent solver.

Each case lifts a one-segment straight path, whose lift solves ``y' =
rhs(y)`` over unit time, and solves the same equation with
``scipy.integrate.solve_ivp`` at tight tolerances and a terminal, falling
event on ``margin(y) - ESCAPE_MARGIN``.  The field and the margin are the
action's own; what is independent is the integrator and the escape
detection.  A case whose reference completes with a densely sampled margin
below ``2 * ESCAPE_MARGIN`` passes so close to the boundary that either
verdict is right, and is skipped as ambiguous.  Outside that band the
verdicts must agree, and where both escape, so must the escape times.
"""

import random
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from liecomplete.algebra import AbelianGroup
from liecomplete.expr import parse
from liecomplete.flow import COMPLETE, ESCAPE_MARGIN, ESCAPED
from liecomplete.lift import GPath, LinearSeg, lift_path
from liecomplete.manifold import Domain, GAction
from liecomplete.scenarios import build

from test_cli import _VALID_TERMS

ESCAPE_TIME_TOL = 1e-5
SAMPLES_PER_STEP = 16   # dense samples of the reference's margin on each of its steps


def _reference(action, x0, delta, max_step):
    """``(status, escape_time, least_margin)`` of solve_ivp on the lift's equation."""
    rhs, margin = action.rhs(delta), action._margin

    def event(t, y):   # Python floats: numpy floats make the generated code warn on overflow
        return margin(y.tolist()) - ESCAPE_MARGIN
    event.terminal, event.direction = True, -1

    sol = solve_ivp(lambda t, y: rhs(y.tolist()), (0.0, 1.0), np.array(x0), rtol=1e-11, atol=1e-13,
                    events=event, dense_output=True, max_step=max_step)
    assert sol.status in (0, 1), sol.message
    if sol.status == 1:
        return ESCAPED, sol.t_events[0][0], None
    return COMPLETE, None, _least_margin(sol.sol, sol.t, margin)


def _least_margin(dense, steps, margin) -> float:
    """The least margin along the dense output: samples, each strict local least refined by Brent's method."""
    s = np.linspace(0.0, 1.0, SAMPLES_PER_STEP + 1)[:-1]
    ts = np.append(np.concatenate([a + (b - a) * s for a, b in zip(steps[:-1], steps[1:])]), steps[-1])
    ms = [margin(y) for y in dense(ts).T.tolist()]
    least = min(ms)
    for i in range(len(ts)):
        if least < 2.0 * ESCAPE_MARGIN:
            break
        lo, hi = max(i - 1, 0), min(i + 1, len(ts) - 1)
        if all(ms[i] < ms[j] for j in (lo, hi) if j != i):
            found = minimize_scalar(lambda t: margin(dense(t).tolist()), bounds=(ts[lo], ts[hi]),
                                    method="bounded", options={"xatol": 1e-14})
            least = min(least, found.fun)
    return least


def _compare(cases):
    """Lift and solve each ``(label, action, x0, delta, max_step)``.

    Returns the tally of verdict pairs, the labels skipped in the band, the
    disagreements and the largest escape-time gap.
    """
    tally, skipped, disagree, gap = Counter(), [], [], 0.0
    for label, action, x0, delta, max_step in cases:
        path = GPath(action.group, [0.0] * action.dim_algebra, [LinearSeg(tuple(delta))])
        lifted = lift_path(action, path, x0)
        ref, t_ref, least = _reference(action, x0, delta, max_step)
        if ref == COMPLETE and least < 2.0 * ESCAPE_MARGIN:
            skipped.append(label)
            continue
        tally[lifted.status, ref] += 1
        if lifted.status != ref:
            disagree.append((label, lifted.status, lifted.escape_time, ref, t_ref))
        elif ref == ESCAPED:
            gap = max(gap, abs(lifted.escape_time - t_ref))
            if not abs(lifted.escape_time - t_ref) <= ESCAPE_TIME_TOL:
                disagree.append((label, lifted.status, lifted.escape_time, ref, t_ref))
    return tally, skipped, disagree, gap


def _report(tally, skipped, disagree, gap) -> str:
    verdicts = (COMPLETE, ESCAPED)
    lines = ["lift \\ reference  " + "  ".join(f"{v:>9}" for v in verdicts)]
    lines += [f"{row:>17}  " + "  ".join(f"{tally[row, col]:>9}" for col in verdicts) for row in verdicts]
    other = {k: v for k, v in tally.items() if not set(k) <= set(verdicts)}
    if other:
        lines.append(f"other verdicts: {other}")
    lines.append(f"skipped in the band: {len(skipped)}; largest escape-time gap {gap:.3g}")
    lines += [f"  {d}" for d in disagree[:5]]
    return "\n".join(lines)


def _check(result):
    tally, skipped, disagree, gap = result
    report = _report(*result)
    print(report)
    assert not disagree, "verdicts or escape times disagree:\n" + report
    # neither verdict may be missing, or the comparison would pass vacuously
    assert tally[COMPLETE, COMPLETE] and tally[ESCAPED, ESCAPED], report


def test_annulus_walls_match_the_reference():
    action = build("example4_annulus").action
    rng = random.Random(20240)
    cases = []
    for i in range(100):
        x0 = [rng.uniform(0.6, 1.9), rng.uniform(-6.0, 6.0)]
        delta = [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
        cases.append(((i, x0, delta), action, x0, delta, np.inf))
    _check(_compare(cases))


def _translation(exclusion: str) -> GAction:
    fields = [[parse("1"), parse("0")], [parse("0"), parse("1")]]
    return GAction(AbelianGroup(2), Domain(("x", "y"), margins=(parse(exclusion),)), fields)


def _fuzz_draws() -> list:
    """600 seeded ``(i, exclusion, x0, delta)``, the exclusion ``"{a} {op} {b}"`` of valid terms."""
    rng = random.Random(7)
    return [(i, f"{rng.choice(_VALID_TERMS)} {rng.choice('+-*/')} {rng.choice(_VALID_TERMS)}",
             [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)],
             [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]) for i in range(600)]


_FUZZ = _fuzz_draws()
# draws whose verdicts disagree outside the band, each a strict xfail below
_PINNED = {
    # the lift escapes at x = 0, where the margin is 0, as it should; the
    # margin is below ESCAPE_MARGIN only within 1.6e-20 of that wall, which the
    # lift's states reach and the reference's clock, near t = 0.56, cannot
    199: "1e308 * x^2^2^2",
}


def _fuzz_case(i, text, x0, delta):
    # a small max_step makes the reference's event see thin passes, which
    # a constant field would otherwise cross in a few long steps
    return (i, text, x0, delta), _translation(text), x0, delta, 1e-2


def test_fuzzed_exclusions_match_the_reference():
    assert all(_FUZZ[i][1] == text for i, text in _PINNED.items())
    cases = [_fuzz_case(*draw) for draw in _FUZZ if draw[0] not in _PINNED]
    inside = [case for case in cases if case[1].margin(case[2]) > 1e-3]
    result = _compare(inside)
    print(f"skipped at the start: {len(cases) - len(inside)} of {len(_FUZZ)}; pinned: {len(_PINNED)}")
    _check(result)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the reference misses a wall that the lift finds")
@pytest.mark.parametrize("i", sorted(_PINNED))
def test_pinned_fuzz_draws_match_the_reference(i):
    tally, skipped, disagree, gap = _compare([_fuzz_case(*_FUZZ[i])])
    assert not disagree, _report(tally, skipped, disagree, gap)
