"""Built-in worked scenarios with closed-form oracles.

Each builder assembles a :class:`~liecomplete.manifold.GAction` together with
scenario extras (winding observable, equivariant comparison target, oracle
helpers).  The four built-ins:

* ``translation_rn`` — translations of R^n; complete, the trivial baseline.
* ``example4_annulus`` — translations pulled back through the polar covering
  map ``p(r, theta) = (r cos theta, r sin theta)`` of a bounded strip; very
  incomplete, and the strip-to-plane map is the universal equivariant target.
* ``example6_helicoid`` — the helicoidal action on R^3 minus the z-axis:
  planar translations whose third component shears z by ``alpha * z`` per
  unit of winding angle; the closed-form angle law for the third coordinate
  makes it the main oracle scenario.
* ``affine_line`` — the affine algebra acting on R by translation and
  dilation; the matrix-model scenario.

Scenario and parameter names are part of the CLI contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .algebra import AbelianGroup, MatrixGroup
from .expr import parse
from .manifold import Domain, GAction
from .flow import IntegratorConfig
from .lift import TRACE_TARGET, GPath, LinearSeg, lift_path

__all__ = [
    "Scenario",
    "ScenarioError",
    "build",
    "scenario_names",
    "oracle_z",
    "closure_gap",
    "LeafInvariant",
    "leaf_invariant",
    "invariants_match",
    "universal_constancy_check",
    "circle_loop_path",
    "equal_p_witness",
]


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    """A built action plus the extras the oracles need."""

    name: str
    params: Dict[str, float]
    action: GAction
    description: str = ""
    # equivariant target: (map f: point -> vector, action (g, v) -> vector)
    equivariant_target: Optional[Tuple[Callable, Callable]] = None


# ---------------------------------------------------------------------------
# builders


def _build_translation_rn(params) -> Scenario:
    n = params["n"]
    if n != int(n) or n < 1:
        raise ScenarioError("translation_rn needs an integer n >= 1")
    n = int(n)
    coords = tuple(f"x{i + 1}" for i in range(n))
    fields = [
        [parse("1") if i == j else parse("0") for j in range(n)]
        for i in range(n)
    ]
    action = GAction(
        AbelianGroup(n),
        Domain(coords),
        fields,
        name="translation_rn",
    )

    def f_id(x):
        return np.asarray(x, dtype=float)

    def act(g, v):
        return np.asarray(v, dtype=float) - np.asarray(g, dtype=float)

    return Scenario(
        "translation_rn",
        {"n": n},
        action,
        "translations of R^n (complete)",
        equivariant_target=(f_id, act),
    )


def _build_example4_annulus(params) -> Scenario:
    r0, r1 = float(params["r0"]), float(params["r1"])
    th0, th1 = float(params["theta_min"]), float(params["theta_max"])
    if not (0.0 < r0 < r1):
        raise ScenarioError("need 0 < r0 < r1")
    if not th0 < th1:
        raise ScenarioError("need theta_min < theta_max")
    domain = Domain(("r", "theta"), box=((r0, r1), (th0, th1)))
    fields = [
        [parse("cos(theta)"), parse("-sin(theta)/r")],
        [parse("sin(theta)"), parse("cos(theta)/r")],
    ]
    action = GAction(
        AbelianGroup(2, ("X", "Y")),
        domain,
        fields,
        name="example4_annulus",
    )

    def p_map(x):
        r, th = float(x[0]), float(x[1])
        return np.array([r * math.cos(th), r * math.sin(th)])

    def act(g, v):
        return np.asarray(v, dtype=float) - np.asarray(g, dtype=float)

    return Scenario(
        "example4_annulus",
        {"r0": r0, "r1": r1, "theta_min": th0, "theta_max": th1},
        action,
        "plane translations pulled back through the polar covering of a strip",
        equivariant_target=(p_map, act),
    )


def _build_example6_helicoid(params) -> Scenario:
    alpha = float(params["alpha"])
    if alpha < 0.0:
        raise ScenarioError("alpha must be >= 0")
    domain = Domain(("x", "y", "z"), margins=(parse("x^2 + y^2"),))
    fields = [
        [parse("1"), parse("0"), parse("alpha*y*z/(x^2 + y^2)")],
        [parse("0"), parse("1"), parse("-alpha*x*z/(x^2 + y^2)")],
    ]
    action = GAction(
        AbelianGroup(2, ("X", "Y")),
        domain,
        fields,
        params={"alpha": alpha},
        winding_plane=lambda p: (p[0], p[1]),
        name="example6_helicoid",
    )
    target = None
    if alpha == 0.0:
        def f_id(x):
            return np.asarray(x, dtype=float)

        def act(g, v):
            v = np.array(v, dtype=float)
            v[0] -= g[0]
            v[1] -= g[1]
            return v

        target = (f_id, act)
    return Scenario(
        "example6_helicoid",
        {"alpha": alpha},
        action,
        "helicoidal shear action on R^3 minus the z-axis",
        equivariant_target=target,
    )


# affine basis: T (translation) and D (dilation) with [T, D] = T, matching
# [d/dx, x d/dx] = d/dx, realized by 2x2 matrices; signs chosen so
# act(g, v) = a*v - b has generator -d/dt
_AFFINE_BASIS = np.array(
    [
        [[0.0, 1.0], [0.0, 0.0]],    # T: exp(tT) = [[1, t], [0, 1]]
        [[-1.0, 0.0], [0.0, 0.0]],   # D: exp(tD) = [[e^-t, 0], [0, 1]]
    ]
)


def _build_affine_line(params) -> Scenario:
    action = GAction(
        MatrixGroup(_AFFINE_BASIS, ("T", "D")),
        Domain(("x",)),
        [[parse("1")], [parse("x")]],
        name="affine_line",
    )

    def f_id(x):
        return np.asarray(x, dtype=float)

    def act(g, v):
        # act([[a, b], [0, 1]], v) = a*v - b; with the basis above this is the
        # left action whose minus-derivative gives the stored fields, so
        # act(c(t), y(t)) stays constant along every lift
        a, b = float(g[0][0]), float(g[0][1])
        return a * np.asarray(v, dtype=float) - b

    return Scenario(
        "affine_line",
        {},
        action,
        "affine transformations of the line (matrix model; complete, transitive)",
        equivariant_target=(f_id, act),
    )


_BUILDERS = {
    "translation_rn": (_build_translation_rn, {"n": 2}),
    "example4_annulus": (
        _build_example4_annulus,
        {"r0": 0.5, "r1": 2.0, "theta_min": -2.0 * math.pi, "theta_max": 2.0 * math.pi},
    ),
    "example6_helicoid": (_build_example6_helicoid, {"alpha": 1.0}),
    "affine_line": (_build_affine_line, {}),
}

_ALIASES = {
    "translation": "translation_rn",
    "example4": "example4_annulus",
    "example6": "example6_helicoid",
    "affine": "affine_line",
}


def scenario_names() -> list:
    return sorted(_BUILDERS)


def build(name: str, params: Optional[Dict] = None) -> Scenario:
    """Build a scenario by (possibly aliased) name with parameter overrides.

    Parameter values must be finite numbers.
    """
    key = _ALIASES.get(name, name)
    if key not in _BUILDERS:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    builder, defaults = _BUILDERS[key]
    merged = dict(defaults)
    for k, v in (params or {}).items():
        if k not in defaults:
            raise ScenarioError(f"scenario {key!r} has no parameter {k!r}")
        if not math.isfinite(v):
            raise ScenarioError(f"parameter {k!r} must be finite, got {v!r}")
        merged[k] = v
    return builder(merged)


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


@dataclass(frozen=True)
class LeafInvariant:
    """Complete leaf invariant for the helicoid scenario.

    ``base`` is the translation offset between the group point and the planar
    part of the manifold point; it labels the leaf together with ``kind``:

    * ``zero``  — the flat leaf (third coordinate 0); ``value`` is None.
    * ``plus``/``minus`` — sign of the third coordinate; ``value`` is the
      winding phase ``frac((log|u| + alpha*theta0) / (2*pi*alpha))`` on the
      circle R/Z.
    * ``alpha0`` — degenerate translations-only case; ``value`` is the third
      coordinate itself (no winding identification happens at alpha = 0).
    """

    base: tuple
    kind: str
    value: Optional[float]


def leaf_invariant(alpha: float, g, x) -> LeafInvariant:
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if g.shape != (2,) or x.shape != (3,):
        raise ScenarioError("leaf_invariant expects g in R^2 and x in R^3")
    if x[0] == 0.0 and x[1] == 0.0:
        raise ScenarioError("manifold point lies on the excluded axis")
    base = (float(g[0] - x[0]), float(g[1] - x[1]))
    u = float(x[2])
    if alpha == 0.0:
        return LeafInvariant(base, "alpha0", u)
    if u == 0.0:
        return LeafInvariant(base, "zero", None)
    theta0 = math.atan2(x[1], x[0])
    phase = (math.log(abs(u)) + alpha * theta0) / (2.0 * math.pi * alpha)
    return LeafInvariant(base, "plus" if u > 0 else "minus", phase - math.floor(phase))


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def invariants_match(i1: LeafInvariant, i2: LeafInvariant, tol: float = 1e-6) -> bool:
    if i1.kind != i2.kind:
        return False
    if max(abs(i1.base[0] - i2.base[0]), abs(i1.base[1] - i2.base[1])) > tol:
        return False
    if i1.kind == "zero":
        return True
    if i1.kind == "alpha0":
        return abs(i1.value - i2.value) <= tol
    return _circle_dist(i1.value, i2.value) <= tol


# ---------------------------------------------------------------------------
# path constructors and the universal-target check


def circle_loop_path(
    start_g,
    x0_plane,
    turns: float = 1.0,
    chords_per_turn: int = 4096,
    clockwise: bool = False,
) -> GPath:
    """Group path whose lift's planar projection circles the origin.

    The projection starts at ``x0_plane`` and follows the circle through it
    (radius preserved) for ``turns`` full revolutions, as a chord polygon with
    ``chords_per_turn`` (at least 1) chords per turn.  ``turns`` is finite and
    positive: ``clockwise`` sets the direction.
    """
    if not (math.isfinite(turns) and turns > 0.0):
        raise ScenarioError(f"turns must be finite and positive, got {turns!r}")
    if not chords_per_turn >= 1:
        raise ScenarioError(f"chords_per_turn must be at least 1, got {chords_per_turn!r}")
    x0_plane = np.asarray(x0_plane, dtype=float)
    if x0_plane.shape != (2,):
        raise ScenarioError("x0_plane must be a 2-vector")
    radius = float(np.hypot(x0_plane[0], x0_plane[1]))
    if radius == 0.0:
        raise ScenarioError("cannot wind a circle of radius zero")
    theta0 = math.atan2(x0_plane[1], x0_plane[0])
    n = max(1, int(round(chords_per_turn * turns)))
    sweep = 2.0 * math.pi * turns * (-1.0 if clockwise else 1.0)
    start_g = np.asarray(start_g, dtype=float)
    segs = []
    px, py = float(x0_plane[0]), float(x0_plane[1])
    for k in range(1, n + 1):
        th = theta0 + sweep * k / n
        qx, qy = radius * math.cos(th), radius * math.sin(th)
        segs.append(LinearSeg((qx - px, qy - py), 1.0))
        px, py = qx, qy
    return GPath(AbelianGroup(2), start_g, segs)


def equal_p_witness(scenario: Scenario, g, x_strip, y_strip, chords: int = 128) -> GPath:
    """Witness identifying two strip points with the same image in the plane.

    Moves along the straight strip segment from ``x_strip`` to ``y_strip`` and
    projects its plane increments into the group; when the two points have
    equal covering image the witness is a closed group loop at ``g``.
    """
    if scenario.name != "example4_annulus":
        raise ScenarioError("equal_p_witness is specific to example4_annulus")
    p_map = scenario.equivariant_target[0]
    x_strip = np.asarray(x_strip, dtype=float)
    y_strip = np.asarray(y_strip, dtype=float)
    segs = []
    prev = p_map(x_strip)
    for k in range(1, chords + 1):
        pt = p_map(x_strip + (y_strip - x_strip) * (k / chords))
        segs.append(LinearSeg(tuple(pt - prev), 1.0))
        prev = pt
    return GPath(scenario.action.group, np.asarray(g, dtype=float), segs)


def universal_constancy_check(
    scenario: Scenario,
    path: GPath,
    x0,
    cfg: Optional[IntegratorConfig] = None,
) -> float:
    """Max deviation of ``act(g(t), f(x(t)))`` from its initial value along a lift.

    ``(f, act)`` is the scenario's built-in equivariant target; a scenario
    without one (the sheared helicoid with positive alpha) raises.
    The deviation is measured along the whole curve at genuine integration
    step endpoints: the step size is capped so trace rows never come from
    dense-output interpolation, whose error is lower order.
    """
    pair = scenario.equivariant_target
    if pair is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} has no built-in equivariant target"
        )
    f_map, act = pair
    cfg = cfg or IntegratorConfig()
    cap = 1.0 / TRACE_TARGET
    cfg = replace(cfg, max_step=cap if cfg.max_step is None else min(cfg.max_step, cap))
    result = lift_path(scenario.action, path, x0, cfg)
    rows = result.trace
    ref = np.asarray(act(rows[0][1], f_map(rows[0][2])), dtype=float)
    worst = 0.0
    for (_, g_t, m_t) in rows[1:]:
        val = np.asarray(act(g_t, f_map(m_t)), dtype=float)
        dev = float(np.max(np.abs(val - ref)))
        if dev > worst:
            worst = dev
    return worst
