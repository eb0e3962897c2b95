"""Closed-form oracles and invariance checks for the built-in scenarios.

Only tests read these; the package itself never calls them.

* :func:`oracle_z` and :func:`closure_gap` — the helicoid's winding law.
* :func:`equal_p_witness` — a group loop identifying two annulus strip points
  with the same image under the polar covering map.
* :func:`universal_constancy_check` — ``act(g(t), f(x(t)))`` along a lift,
  for the equivariant target ``(f, act)`` of each scenario that has one.
* :func:`equivariance_check` — the leaf translation law under left-translating
  a path, raising :class:`LiftEscapedError` when a lift escapes.
* :func:`reverse_path`, :func:`concat_paths` and :func:`isotropy_dim` — the
  reversed and joined group paths and the isotropy dimension that the
  symmetry, transitivity and isotropy tests compare against.
"""

import math

from liecomplete.flow import COMPLETE
from liecomplete.lift import (
    TRACE_TARGET, ExpSeg, GPath, LinearSeg, PathError, _check_group_compat, lift_path,
)
from liecomplete.scenarios import ScenarioError


class LiftEscapedError(RuntimeError):
    def __init__(self, result):
        super().__init__(
            f"lift escaped at t={result.escape_time} (segment {result.failed_segment})"
        )
        self.result = result


# ---------------------------------------------------------------------------
# helicoid oracles


def oracle_z(alpha: float, u: float, dtheta: float) -> float:
    """Closed-form third coordinate after winding ``dtheta``: u * exp(-alpha*dtheta)."""
    return u * math.exp(-alpha * dtheta)


def closure_gap(alpha: float, u: float, theta_total: float) -> float:
    """Distance from the spiral to the flat leaf after total winding ``theta_total``."""
    if theta_total <= 0.0:
        raise ScenarioError("total winding must be positive")
    return abs(u) * math.exp(-alpha * theta_total)


# ---------------------------------------------------------------------------
# equivariant targets: f maps M into a space the group acts on by act, so that
# act(g(t), f(x(t))) stays constant along every lift


def _f_id(x):
    return [float(v) for v in x]


def _translate(g, v):
    """The planar or R^n translation of ``v`` by ``-g``; coordinates past ``g`` stay."""
    return [a - b for a, b in zip(v, g)] + list(v[len(g):])


def _polar(x):
    """The covering map ``p(r, theta) = (r cos theta, r sin theta)`` of the annulus strip."""
    r, th = float(x[0]), float(x[1])
    return [r * math.cos(th), r * math.sin(th)]


def _affine_act(g, v):
    # act([[a, b], [0, 1]], v) = a*v - b; with the affine_line basis this is the
    # left action whose minus-derivative gives the stored fields, so
    # act(c(t), y(t)) stays constant along every lift
    a, b = float(g[0][0]), float(g[0][1])
    return [a * float(x) - b for x in v]


_TARGETS = {
    "translation_rn": (_f_id, _translate),
    "example4_annulus": (_polar, _translate),
    "example6_helicoid": (_f_id, _translate),   # alpha = 0 only
    "affine_line": (_f_id, _affine_act),
}


def equal_p_witness(scenario, g, x_strip, y_strip, chords: int = 128) -> GPath:
    """Witness identifying two strip points with the same image in the plane.

    Moves along the straight strip segment from ``x_strip`` to ``y_strip`` and
    projects its plane increments into the group; when the two points have
    equal covering image the witness is a closed group loop at ``g``.
    """
    if scenario.name != "example4_annulus":
        raise ScenarioError("equal_p_witness is specific to example4_annulus")
    segs = []
    prev = _polar(x_strip)
    for k in range(1, chords + 1):
        pt = _polar([a + (b - a) * (k / chords) for a, b in zip(x_strip, y_strip)])
        segs.append(LinearSeg((pt[0] - prev[0], pt[1] - prev[1]), 1.0))
        prev = pt
    return GPath(scenario.action.group, g, segs)


def _cut(path: GPath) -> GPath:
    """``path`` cut into at least TRACE_TARGET equal pieces when it has 1 to 8 segments.

    ``lift_path`` pads the trace of such a path with rows interpolated inside
    steps; a path of more segments is never padded, so every trace row of its
    lift is an integration step end.
    """
    n = path.n_segments
    if not 0 < n <= 8:
        return path
    m = -(-TRACE_TARGET // n)
    segs = []
    for s in path.segments:
        if isinstance(s, LinearSeg):
            piece = LinearSeg(tuple(v / m for v in s.delta), s.duration / m)
        else:
            piece = ExpSeg(s.X, s.duration / m)
        segs += [piece] * m
    return GPath(path.group, path.start, segs)


def universal_constancy_check(scenario, path: GPath, x0, cfg=None) -> float:
    """Max deviation of ``act(g(t), f(x(t)))`` from its initial value along a lift.

    ``(f, act)`` is the scenario's equivariant target; a scenario without one
    (the sheared helicoid with positive alpha) raises.  The deviation is
    measured at genuine integration step ends, not at rows interpolated
    inside a step, whose error is lower order.
    """
    pair = _TARGETS.get(scenario.name)
    if pair is None or (scenario.name == "example6_helicoid" and scenario.params["alpha"] != 0.0):
        raise ScenarioError(
            f"scenario {scenario.name!r} has no built-in equivariant target"
        )
    f_map, act = pair
    _, g, m = lift_path(scenario.action, _cut(path), x0, cfg).trace
    points = zip(*g) if scenario.action.group.kind == "abelian" else g   # the abelian g is columns
    (g0, m0), *rest = zip(points, zip(*m))
    ref = act(g0, f_map(m0))
    worst = 0.0
    for (g_t, m_t) in rest:
        dev = max(abs(a - b) for a, b in zip(act(g_t, f_map(m_t)), ref))
        if dev > worst:
            worst = dev
    return worst


def equivariance_check(action, path: GPath, x0, g, cfg=None) -> float:
    """Residual of the leaf translation law under left-translating the path.

    Lifts ``path`` and its left-translate by ``g`` from the same ``x0``; the
    manifold endpoints must agree and the group endpoints must differ by left
    multiplication by ``g``.  Raises :class:`LiftEscapedError` on escape.
    """
    base = lift_path(action, path, x0, cfg)
    if base.status != COMPLETE:
        raise LiftEscapedError(base)
    translated = GPath(path.group, action.group.mul(g, path.start), path.segments)
    shifted = lift_path(action, translated, x0, cfg)
    if shifted.status != COMPLETE:
        raise LiftEscapedError(shifted)
    dm = 0.0
    for a, b in zip(base.endpoint_m, shifted.endpoint_m):
        dm = max(dm, abs(a - b))
    dg = action.group.distance(
        action.group.mul(g, base.endpoint_g), shifted.endpoint_g
    )
    return dm + dg


# ---------------------------------------------------------------------------
# paths and isotropy

ENDPOINT_MATCH_TOL = 1e-9


def reverse_path(path: GPath) -> GPath:
    """``path`` run backwards from its endpoint, each segment negated."""
    segs = []
    for s in reversed(path.segments):
        if isinstance(s, LinearSeg):
            segs.append(LinearSeg(tuple(-v for v in s.delta), s.duration))
        else:
            segs.append(ExpSeg(tuple(-v for v in s.X), s.duration))
    return GPath(path.group, path.endpoint(), segs)


def concat_paths(first: GPath, second: GPath) -> GPath:
    """``first`` then ``second``, which must start at ``first``'s endpoint in the same group model."""
    _check_group_compat(first.group, second.group)
    if first.group.distance(first.endpoint(), second.start) > ENDPOINT_MATCH_TOL:
        raise PathError("second path must start at the first path's endpoint")
    segs = []
    for p in (first, second):
        # rebuild from total displacements so endpoints survive reweighting
        for s, vec, vel, w in zip(p.segments, zip(*p._vectors), zip(*p._velocities), p.widths):
            segs.append(LinearSeg(vec, w) if isinstance(s, LinearSeg) else ExpSeg(vel, w))
    return GPath(first.group, first.start, segs)


def isotropy_dim(report) -> int:
    """The dimension of the isotropy subalgebra of an ``IsotropyReport``."""
    return report.nullspace.shape[0]
