"""The benchmark's tracer still finds every name it rebinds in the package.

``perfbench/tracer.py`` times layers by rebinding public names such as
``GPath.__init__`` and ``MatrixGroup.exp_segment``; a name that moves or goes
away silently drops its per-layer metrics, so it is caught here.  Its
``integrate_autonomous`` wrapper takes exactly ``(rhs, y0, duration, cfg,
margin, on_step)``, so one traced lift, and one traced ``loop_to_group`` on
the matrix model, check that the wrapped calls still work and that the counts
they feed are the integrator's.  Its span wrappers around ``rhs`` and
``margin`` carry neither the margin's ``lower`` bound nor the action's own
kernels (``rhs.step``, ``margin.scan``), so a traced lift runs the generic
step, which calls the rhs, and calls the margin at the step's start, at the
interpolant's scan points and at its end: 7 rhs and 5 margin calls per
one-step segment.  A
traced line past the helicoid axis also runs the dip searches that the
untraced one skips, and must give the same result.
"""

import math
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_perfbench_finds_every_hook_point(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer, install
    from workloads import Pkg

    tracer = install(Tracer(), Pkg())
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()


def test_traced_lift_is_the_untraced_lift(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer, install
    from workloads import CHORDS_PER_TURN, Pkg

    pkg = Pkg()
    action = pkg.scenarios.build("example6_helicoid").action
    x0 = (1.3 * math.cos(0.7), 1.3 * math.sin(0.7), -1.1)
    # the smallest winding op: a quarter turn, one integrator step per chord
    path = pkg.scenarios.circle_loop_path((0.0, 0.0), x0[:2], turns=0.25)
    plain = pkg.lift.lift_path(action, path, x0)
    tracer = install(Tracer(), pkg)
    try:
        traced = pkg.lift.lift_path(action, path, x0)
    finally:
        tracer.restore()
    assert (traced.status, traced.endpoint_m, traced.winding, traced.steps) == (
        plain.status, plain.endpoint_m, plain.winding, plain.steps)
    accepted = tracer.layer("lift.on_step")[0]
    assert accepted == tracer.counts["flow.steps_attempted"] == CHORDS_PER_TURN // 4
    assert tracer.counts["lift.segments"] == path.n_segments == accepted
    assert tracer.layer("manifold.rhs")[0] == 7 * accepted
    assert tracer.layer("manifold.margin")[0] == 5 * accepted


def test_traced_graze_line_is_the_untraced_one(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer, install
    from workloads import Pkg, make_inputs

    from liecomplete import flow

    searches = []
    golden = flow._golden_min
    monkeypatch.setattr(flow, "_golden_min", lambda fn, lo, hi: searches.append(lo) or golden(fn, lo, hi))
    pkg = Pkg()
    action = pkg.scenarios.build("example6_helicoid").action
    # the first graze op of seed 3: a line past the axis whose steps dip
    op = make_inputs("graze", 3, str(tmp_path))[0]
    path = pkg.lift.GPath(action.group, (0.0, 0.0), [pkg.lift.LinearSeg(op["delta"], 1.0)])
    x0 = (*op["p0"], op["z0"])
    plain = pkg.lift.lift_path(action, path, x0)
    skipped = len(searches)
    # the span around the margin carries no lower bound, so every dip search runs
    tracer = install(Tracer(), pkg)
    try:
        traced = pkg.lift.lift_path(action, path, x0)
    finally:
        tracer.restore()
    assert traced == plain
    assert (skipped, len(searches)) == (0, 27)


def test_traced_loop_to_group_is_the_untraced_one(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer, install
    from workloads import AFFINE_FRAMES, Pkg, make_inputs

    pkg = Pkg()
    action = pkg.scenarios.build("affine_line").action
    # the first affine_loop op of seed 3: a walk with one integrator step per sub-chord
    op = make_inputs("affine_loop", 3, str(tmp_path))[0]
    pts = [[x] for x in op["points"]]
    args = (action, AFFINE_FRAMES[op["frame"]], pts, pts[0])
    plain = pkg.completion.loop_to_group(*args, closed=False)
    tracer = install(Tracer(), pkg)
    try:
        traced = pkg.completion.loop_to_group(*args, closed=False)
    finally:
        tracer.restore()
    assert traced.element.tolist() == plain.element.tolist()
    assert traced.round_trip_residual == plain.round_trip_residual
    steps = tracer.counts["flow.steps_attempted"]
    chords = len(pts) - 1
    assert tracer.counts["lift.segments"] == tracer.layer("lift.on_step")[0] == steps == 4 * chords
    assert tracer.layer("manifold.rhs")[0] == 7 * steps
    assert tracer.layer("manifold.margin")[0] == 5 * steps
    assert tracer.layer("completion.loop_to_group")[0] == 1
