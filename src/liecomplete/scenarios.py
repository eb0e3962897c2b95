"""Built-in worked scenarios.

Each builder returns a scenario's parameters and its
:class:`~liecomplete.manifold.GAction`, with its winding observable where the
scenario has one; :func:`build` names the pair by its key in ``_BUILDERS``.
The module also holds the helicoid's complete leaf invariant and the circle
loop paths that ``lift --circle-turns`` follows.  The four built-ins:

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
from typing import Dict, Optional

from ._record import InputError, Record, floats, number
from .algebra import AbelianGroup, MatrixGroup
from .expr import parse
from .manifold import Domain, GAction

__all__ = [
    "Scenario",
    "ScenarioError",
    "build",
    "scenario_names",
    "LeafInvariant",
    "leaf_invariant",
    "invariants_match",
    "circle_loop_path",
]


class ScenarioError(InputError):
    pass


class Scenario(Record):
    """A built action under its scenario name; ``params`` maps parameter names to floats."""

    __slots__ = ("name", "params", "action")


# ---------------------------------------------------------------------------
# builders


# the abelian algebra's Jacobi check grows as n^4: at n = 16 `check` takes one to
# two seconds, n = 64 takes 9 s only to build, and n = 1e300 never ends (2 vCPUs)
MAX_TRANSLATION_DIM = 16


def _build_translation_rn(params) -> tuple:
    n = params["n"]
    if not 1 <= n <= MAX_TRANSLATION_DIM or n != int(n):
        raise ScenarioError(f"translation_rn needs an integer n from 1 to {MAX_TRANSLATION_DIM}")
    n = int(n)
    coords = tuple(f"x{i + 1}" for i in range(n))
    fields = [[parse("1") if i == j else parse("0") for j in range(n)] for i in range(n)]
    return {"n": n}, GAction(AbelianGroup(n), Domain(coords), fields)


def _build_example4_annulus(params) -> tuple:
    r0, r1, th0, th1 = (params[k] for k in ("r0", "r1", "theta_min", "theta_max"))
    if not (0.0 < r0 < r1):
        raise ScenarioError("need 0 < r0 < r1")
    if not th0 < th1:
        raise ScenarioError("need theta_min < theta_max")
    domain = Domain(("r", "theta"), box=((r0, r1), (th0, th1)))
    fields = [
        [parse("cos(theta)"), parse("-sin(theta)/r")],
        [parse("sin(theta)"), parse("cos(theta)/r")],
    ]
    return ({"r0": r0, "r1": r1, "theta_min": th0, "theta_max": th1},
            GAction(AbelianGroup(2, ("X", "Y")), domain, fields))


def _build_example6_helicoid(params) -> tuple:
    alpha = params["alpha"]
    if alpha < 0.0:
        raise ScenarioError("alpha must be >= 0")
    domain = Domain(("x", "y", "z"), margins=(parse("x^2 + y^2"),))
    fields = [
        [parse("1"), parse("0"), parse("alpha*y*z/(x^2 + y^2)")],
        [parse("0"), parse("1"), parse("-alpha*x*z/(x^2 + y^2)")],
    ]
    return {"alpha": alpha}, GAction(AbelianGroup(2, ("X", "Y")), domain, fields,
                                     params={"alpha": alpha}, winding=True)


# affine basis: T (translation) and D (dilation) with [T, D] = T, matching
# [d/dx, x d/dx] = d/dx, realized by 2x2 matrices; signs chosen so
# act(g, v) = a*v - b has generator -d/dt
_AFFINE_BASIS = [
    [[0.0, 1.0], [0.0, 0.0]],    # T: exp(tT) = [[1, t], [0, 1]]
    [[-1.0, 0.0], [0.0, 0.0]],   # D: exp(tD) = [[e^-t, 0], [0, 1]]
]


def _build_affine_line(params) -> tuple:
    group = MatrixGroup(_AFFINE_BASIS, ("T", "D"))
    return {}, GAction(group, Domain(("x",)), [[parse("1")], [parse("x")]])


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
    return Scenario(key, *builder(_override_params(key, defaults, params)))


def _override_params(name: str, defaults: Dict, params: Optional[Dict]) -> dict:
    """``defaults`` with the values of ``params`` as floats; they must be finite and keys of ``defaults``."""
    merged = dict(defaults)
    for k, v in (params or {}).items():
        if k not in defaults:
            raise ScenarioError(f"scenario {name!r} has no parameter {k!r}")
        v = number(v, ScenarioError, f"parameter {k!r} must be a number")
        if not math.isfinite(v):
            raise ScenarioError(f"parameter {k!r} must be finite, got {v!r}")
        merged[k] = v
    return merged


# ---------------------------------------------------------------------------
# helicoid leaf invariants


class LeafInvariant(Record):
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

    __slots__ = ("base", "kind", "value")


def leaf_invariant(alpha: float, g, x) -> LeafInvariant:
    message = "leaf_invariant expects g in R^2, x in R^3 and alpha, all finite"
    alpha = number(alpha, ScenarioError, message)
    g, x = floats(g, ScenarioError, message, 2), floats(x, ScenarioError, message, 3)
    if not all(map(math.isfinite, (alpha, *g, *x))):   # math.floor of a phase of inf raises
        raise ScenarioError(message)
    if x[0] == 0.0 and x[1] == 0.0:
        raise ScenarioError("manifold point lies on the excluded axis")
    base = (g[0] - x[0], g[1] - x[1])
    u = x[2]
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
# path constructors


# every chord is built before the lift starts, and holds about 590 B in the
# path's columns and the lift's trace: 100,000 chords of the helicoid circle
# peak 59 MB above the interpreter and take 0.8 s to build and lift (2 vCPUs),
# so at this cap a lift takes about 590 MB and 8 s
MAX_CIRCLE_CHORDS = 1_000_000


def circle_loop_path(
    start_g,
    x0_plane,
    turns: float = 1.0,
    chords_per_turn: int = 4096,
    clockwise: bool = False,
):
    """Group path whose lift's planar projection circles the origin.

    The projection starts at ``x0_plane`` and follows the circle through it
    (radius preserved) for ``turns`` full revolutions, as a chord polygon with
    ``chords_per_turn`` (at least 1) chords per turn, at most
    ``MAX_CIRCLE_CHORDS`` in all.  ``turns`` is finite and positive:
    ``clockwise`` sets the direction.  The chord displacements go to
    :class:`~liecomplete.lift.GPath` as two columns of floats, so building
    the path makes no object per chord.
    """
    from .lift import GPath, _Chords
    turns = number(turns, ScenarioError, "turns must be a number")
    chords = number(chords_per_turn, ScenarioError, "chords_per_turn must be a number")
    if not 0.0 < turns < math.inf:
        raise ScenarioError(f"turns must be finite and positive, got {turns!r}")
    if not 1.0 <= chords < math.inf:
        raise ScenarioError(f"chords_per_turn must be finite and at least 1, got {chords!r}")
    px, py = floats(x0_plane, ScenarioError, "x0_plane must be a 2-vector", 2)
    # abs of a complex is the C library's hypot, as numpy's hypot is
    radius = abs(complex(px, py))
    if radius == 0.0:
        raise ScenarioError("cannot wind a circle of radius zero")
    theta0 = math.atan2(py, px)
    total = chords * turns
    if not total <= MAX_CIRCLE_CHORDS:
        raise ScenarioError(f"a circle path of chords_per_turn * turns = {total:.3g} chords "
                            f"passes the cap of {MAX_CIRCLE_CHORDS}")
    n = max(1, int(round(total)))
    sweep = 2.0 * math.pi * turns * (-1.0 if clockwise else 1.0)
    dx, dy = [], []
    for k in range(1, n + 1):
        th = theta0 + sweep * k / n
        qx, qy = radius * math.cos(th), radius * math.sin(th)
        dx.append(qx - px)
        dy.append(qy - py)
        px, py = qx, qy
    return GPath(AbelianGroup(2), start_g, _Chords((dx, dy)))

