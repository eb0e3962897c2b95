"""Open domains in R^n and Lie algebra actions on them.

A :class:`GAction` stores the infinitesimal action directly: one expression
row per algebra basis vector, one component expression per coordinate.  The
sign convention is fixed operationally by the worked scenarios — lifting the
counterclockwise unit loop in the helicoidal scenario must multiply the third
coordinate by ``exp(-2*pi*alpha)`` (see tests); implementations that flip the
pairing between group velocities and fields fail that oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from ._record import InputError, Record
from .expr import (
    Expr, ExprNameError, _define, _is_const, _name_map, _py_float, _render_py, checked, compile_scalars,
)
from .flow import _names, _scan_lines, _step_lines

DEFAULT_SAMPLING_HALF_WIDTH = 2.0
SAMPLING_MARGIN = 0.1  # sampled points keep at least this margin


class DomainError(InputError):
    pass


class OutsideDomainError(InputError):
    pass


class ActionError(InputError):
    pass


class SamplingError(InputError):
    pass


class Domain(Record):
    """Open subset of R^n: box bounds (optional per side) plus exclusion margins.

    A point is inside iff every margin expression is positive and every finite
    box bound is strictly respected.  ``margin`` below is the min of all of
    these, so it is continuous and positive exactly on the interior.
    """

    __slots__ = ("coords", "box", "margins")

    def __init__(self, coords: Sequence[str], box: Optional[Sequence] = None, margins: Sequence = ()):
        coords = tuple(coords)
        if not coords or len(set(coords)) != len(coords):
            raise DomainError("coordinate names must be non-empty and distinct")
        if box is not None:
            # per-coord (lo, hi), entries may be None
            box = tuple(tuple(b) if b is not None else None for b in box)
            if len(box) != len(coords):
                raise DomainError("box must give one (lo, hi) pair per coordinate")
            for b in box:
                if b is None:
                    continue
                lo, hi = b
                if lo is not None and hi is not None and not lo < hi:
                    raise DomainError("box bounds must satisfy lo < hi")
        # other names in margins are parameters, bound when an action is built
        super().__init__(coords, box, tuple(margins))

    @property
    def dim(self) -> int:
        return len(self.coords)


def _on_first_call(fn: Callable, attr: str, build: Callable) -> None:
    """Set ``fn.<attr>`` to a stand-in that replaces itself with ``build()`` when first called."""
    def first(*args):
        if getattr(fn, attr) is first:
            setattr(fn, attr, build())
        return getattr(fn, attr)(*args)

    setattr(fn, attr, first)


def _margin_lines(domain: Domain, names: Mapping[str, str], m: str = "m") -> list:
    """Source lines setting the name ``m`` to the margin at the point ``_v0, _v1, ...``, using ``v``.

    The minimum starts at ``inf`` and takes each value that is ``<`` it, so a
    NaN margin is ignored; a margin expression that raises gives ``-inf``,
    which no box distance lowers.
    """
    lines = [f"{m} = _inf"]
    if domain.margins:
        lines.append("try:")
        for e in domain.margins:
            lines += [f"    if (v := {_render_py(e.node, names)}) < {m}:", f"        {m} = v"]
        lines += ["except _EVAL_ERRORS:", f"    {m} = -_inf"]
    for j, b in enumerate(domain.box or ()):
        lo, hi = b if b is not None else (None, None)
        if lo is not None:
            lines += [f"if (v := _v{j} - {_py_float(lo)}) < {m}:", f"    {m} = v"]
        if hi is not None:
            lines += [f"if (v := {_py_float(hi)} - _v{j}) < {m}:", f"    {m} = v"]
    return lines


def _compile_margin(domain: Domain, params: Mapping[str, float]) -> Callable:
    """Generate p -> min(margins, box distances) as one list-in function.

    Its value is that of :func:`_margin_lines`.  Two attributes are generated
    on their first call: ``lower(lo, hi)``, a lower bound of the margin at
    every list of floats p with ``lo[j] <= p[j] <= hi[j]``, or ``-inf`` where
    it proves nothing (:func:`liecomplete.interval.margin_lower`); and
    ``scan(y0, f0, y1, f1, h)``, the integrator's margin scan of a step with
    these lines inlined (:func:`liecomplete.flow._scan_lines`).
    """
    names = _name_map(domain.coords, params)
    margin = _define("\n".join([
        "def _margin(p):",
        f"    {_names('_v', domain.dim)}= p",
        *("    " + line for line in _margin_lines(domain, names)),
        "    return m",
    ]))["_margin"]

    def lower():   # the interval module is imported only when a bound is first asked for
        from .interval import margin_lower
        return margin_lower(domain, names)

    _on_first_call(margin, "lower", lower)
    body = functools.partial(_margin_lines, domain, names)
    _on_first_call(margin, "scan", lambda: _define("\n".join(_scan_lines(domain.dim, body)))["scan"])
    return margin


def _compile_contraction(fields, rows: tuple, coords, params) -> Callable:
    """Generate a factory: coefficients of ``rows`` -> y -> sum_i c_i zeta_i(y).

    Each component adds ``c_i * field`` over ``rows`` in order onto ``0.0``,
    as a loop accumulating into a zeroed list would; literal-0 entries are
    left out and literal-1 entries are the bare coefficient, neither of
    which changes the sum.  The leading ``0.0 +`` (which turns a -0.0
    product into 0.0) is dropped only before a bare coefficient, which is
    never zero.  Each rhs carries the attribute ``step``, the integrator's
    DP5 step with the contraction inlined (:func:`liecomplete.flow._step_lines`);
    the coefficients are cells of both closures.
    """
    names = _name_map(coords, params)
    comps = []
    for j in range(len(coords)):
        terms = []
        for i in rows:
            node = fields[i][j].node
            if _is_const(node, 1.0):
                terms.append(f"_c{i}")
            elif not _is_const(node, 0.0):
                terms.append(f"_c{i} * {_render_py(node, names)}")
        if not terms or "*" in terms[0]:
            terms.insert(0, "0.0")
        comps.append(" + ".join(terms))
    src = "\n".join([
        f"def _make({', '.join(f'_c{i}' for i in rows)}):",
        "    def _rhs(y):",
        f"        {_names('_v', len(coords))}= y",
        f"        return [{', '.join(comps)}]",
        *("    " + line for line in _step_lines(len(coords), comps)),
        "    _rhs.step = step",
        "    return _rhs",
    ])
    return _define(src)["_make"]


class GAction:
    """A Lie algebra action: fields[i][j] is the j-th component of zeta(e_i).

    ``e_i`` are the basis vectors of the group model's algebra.
    """

    def __init__(
        self,
        group,
        domain: Domain,
        fields: Sequence[Sequence[Expr]],
        params: Optional[Mapping[str, float]] = None,
        winding_plane: Optional[Callable] = None,
        name: str = "",
    ):
        d, n = group.dim, domain.dim
        # before the algebra, whose structure constants are d^3 numbers
        if len(fields) != d or any(len(row) != n for row in fields):
            raise ActionError(f"fields must be a {d}x{n} grid of expressions")
        self.group = group
        self.algebra = group.algebra
        self.domain = domain
        self.params = dict(params or {})
        self.name = name
        self.winding_plane = winding_plane
        self.fields = tuple(tuple(row) for row in fields)
        shadowed = [k for k in self.params if k in domain.coords]
        if shadowed:   # the expressions would read the coordinate
            raise ActionError(f"parameter {shadowed[0]!r} is also a coordinate name")

        # _fields_at: all basis fields at a list of floats, flat in row order,
        # with no domain check; fields and margins name coordinates and params only
        flat = [e for row in self.fields for e in row]
        try:
            self._fields_at = checked(compile_scalars(flat, domain.coords, self.params),
                                      "fields", ActionError)
            self._margin = _compile_margin(domain, self.params)
        except ExprNameError as e:
            raise ActionError(str(e)) from None
        self._contractions: dict = {}  # which coefficients are non-zero -> rhs factory
        self._partials = None  # lazy, for the homomorphism check

    @property
    def dim_algebra(self) -> int:
        return self.algebra.dim

    @property
    def dim_manifold(self) -> int:
        return self.domain.dim

    # -- point predicates ---------------------------------------------------

    def margin(self, p) -> float:
        """The domain margin at p: positive exactly inside, ``-inf`` at a non-finite point."""
        vals = [float(v) for v in p]
        if not all(map(math.isfinite, vals)):
            return -math.inf
        return self._margin(vals)

    def contains(self, p) -> bool:
        return self.margin(p) > 0.0

    def require_inside(self, p):
        if len(p) != self.dim_manifold:
            raise OutsideDomainError(
                f"point has {len(p)} coordinates, expected {self.dim_manifold}"
            )
        if not self.contains(p):
            raise OutsideDomainError(f"point {list(p)} is outside the domain")

    # -- field evaluation ---------------------------------------------------

    def field_matrix(self, p) -> list:
        """All basis fields at p as d rows of n floats.  No domain check.

        The floats of p go through ``_fields_at``, whose ``ActionError`` names them.
        """
        flat = self._fields_at([float(v) for v in p])
        n = self.dim_manifold
        return [list(flat[i:i + n]) for i in range(0, len(flat), n)]

    def zeta(self, X, p) -> list:
        """Value of the fundamental field of X at p (p must be inside)."""
        try:
            X = [float(v) for v in X]
        except (TypeError, ValueError):
            X = None
        if X is None or len(X) != self.dim_algebra:
            raise ActionError("zeta expects a d-vector of algebra coefficients")
        self.require_inside(p)
        return [sum(map(mul, X, col)) for col in zip(*self.field_matrix(p))]

    def rhs(self, X) -> Callable:
        """Velocity field y -> sum_i X_i zeta_i(y) as a fast list-in/list-out fn.

        The contraction is generated once per set of non-zero coefficients;
        rows whose coefficient is zero are not evaluated.  The function
        carries ``step``, the integrator's DP5 step with it inlined.
        """
        coeffs = list(map(float, X))
        return self._contraction(tuple(map(bool, coeffs)))(*filter(None, coeffs))

    def _contraction(self, nonzero: tuple) -> Callable:
        """The rhs factory taking the non-zero coefficients where ``nonzero`` is true, in order."""
        make = self._contractions.get(nonzero)
        if make is None:
            if len(nonzero) != self.dim_algebra:
                raise ActionError("rhs expects a d-vector of algebra coefficients")
            rows = tuple(i for i, c in enumerate(nonzero) if c)
            make = self._contractions[nonzero] = _compile_contraction(
                self.fields, rows, self.domain.coords, self.params
            )
        return make

    # -- homomorphism check -------------------------------------------------

    def _partial_fn(self) -> Callable:
        """Every d(field_i^k)/dx_l at a list of floats, flat in (i, k, l) order, checked."""
        if self._partials is None:
            coords = self.domain.coords
            diffs = [e.diff(c) for row in self.fields for e in row for c in coords]
            self._partials = checked(compile_scalars(diffs, coords, self.params),
                                     "field partials", ActionError)
        return self._partials


def sample_points(action: GAction, count: int, seed: int = 0) -> list:
    """Rejection-sample ``count`` points with margin above ``SAMPLING_MARGIN``.

    Points are drawn by ``random.Random(seed)`` from the domain's box, whose
    unbounded sides default to ``+-DEFAULT_SAMPLING_HALF_WIDTH``.
    """
    rng = random.Random(seed)
    w = DEFAULT_SAMPLING_HALF_WIDTH
    box = [b or (None, None) for b in action.domain.box or [None] * action.dim_manifold]
    sides = [(-w if lo is None else lo, w if hi is None else hi) for lo, hi in box]
    out = []
    attempts = 0
    max_attempts = max(10_000, 200 * count)
    while len(out) < count:
        if attempts >= max_attempts:
            raise SamplingError(
                f"domain sampling acceptance too low ({len(out)}/{attempts} accepted)"
            )
        p = [lo + (hi - lo) * rng.random() for lo, hi in sides]
        attempts += 1
        if action.margin(p) > SAMPLING_MARGIN:
            out.append(p)
    return out


def check_homomorphism(
    action: GAction,
    sample_count: int = 200,
    seed: int = 0,
) -> float:
    """Max residual of [zeta_i, zeta_j] - zeta([e_i, e_j]) over sampled points.

    The vector-field bracket is computed from symbolic partial derivatives of
    the stored component expressions, so no finite differencing is involved.
    Fields or partials that are not finite at a sampled point raise
    ``ActionError``; a residual that is NaN (the bracket sum overflowed to
    ``inf - inf``) is returned as NaN, which no limit passes.  Fewer than one
    sample would pass vacuously, and raise ``SamplingError``.
    """
    if not sample_count >= 1:
        raise SamplingError(f"sample_count must be >= 1, got {sample_count}")
    d, n = action.dim_algebra, action.dim_manifold
    if d < 2:
        return 0.0
    points = sample_points(action, sample_count, seed=seed)
    partials = action._partial_fn()
    c = action.algebra.c
    worst = 0.0
    for vals in points:
        rows = action.field_matrix(vals)   # Python floats: an overflow gives inf or NaN silently
        flat = partials(vals)
        # dF[i][k][l] = d(field_i^k)/dx_l
        dF = [[flat[m:m + n] for m in range(i * n * n, (i + 1) * n * n, n)] for i in range(d)]
        for i, j in itertools.combinations(range(d), 2):
            expected = [sum(map(mul, c[i][j], col)) for col in zip(*rows)]
            sq = 0.0
            for k in range(n):
                lie = 0.0
                for l in range(n):
                    lie += rows[i][l] * dF[j][k][l] - rows[j][l] * dF[i][k][l]
                e = lie - expected[k]
                sq += e * e   # a float ** would raise OverflowError
            r = math.sqrt(sq)
            if math.isnan(r):
                return r
            if r > worst:
                worst = r
    return worst
