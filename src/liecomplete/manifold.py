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

from ._record import InputError, Record, floats, number, positive_int
from .expr import (
    Bin, Expr, ExprNameError, Num, Var, _define, _is_const, _name_map, _names, _render_py,
    _shared_subtrees, _tuple, checked, compile_scalars,
)

DEFAULT_SAMPLING_HALF_WIDTH = 2.0
SAMPLING_MARGIN = 0.1  # sampled points keep at least this margin
# the sampled points are all held until they are used: at this cap the
# helicoid's check peaks 19 MB above the interpreter and takes 1.3 s, and the
# points of the largest translation_rn (16 coordinates) hold 67 MB
MAX_SAMPLES = 100_000
_NOT_A_POINT = "point is not a list of numbers, one per coordinate"


class DomainError(InputError):
    pass


class OutsideDomainError(InputError):
    pass


class ActionError(InputError):
    pass


class SamplingError(InputError):
    pass


class Domain(Record):
    """Open subset of R^n: a box plus exclusion margins.

    ``box`` holds one ``(lo, hi)`` float pair per coordinate, with ``-inf``
    or ``inf`` for each open side.  A point is inside iff every margin
    expression is positive and every finite box side is strictly respected.
    The domain margin is the least of ``terms``, so it is continuous and
    positive exactly on the interior.
    """

    __slots__ = ("coords", "box", "margins")

    def __init__(self, coords: Sequence[str], box: Optional[Sequence] = None, margins: Sequence = ()):
        """``box`` may be None, and an entry or a side None, for open; a side must be a number, not NaN."""
        coords = tuple(coords)
        if not coords or len(set(coords)) != len(coords):
            raise DomainError("coordinate names must be non-empty and distinct")
        box = (None,) * len(coords) if box is None else tuple(box)
        if len(box) != len(coords):
            raise DomainError("box must give one (lo, hi) pair per coordinate")
        sides = []
        for b in box:
            try:
                lo, hi = (None, None) if b is None else b
            except (TypeError, ValueError):
                raise DomainError("box entries must be (lo, hi) pairs") from None
            lo, hi = _side(lo, -math.inf), _side(hi, math.inf)
            if not lo < hi:
                raise DomainError("box bounds must satisfy lo < hi")
            sides.append((lo, hi))
        margins = tuple(margins)
        if not all(isinstance(e, Expr) for e in margins):
            raise DomainError("margins must be expressions")
        # other names in margins are parameters, bound when an action is built
        super().__init__(coords, tuple(sides), margins)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def terms(self) -> list:
        """The margin's terms: the margin expressions' trees, then ``x - lo`` or ``hi - x`` per finite side.

        The domain margin is the least of them (:func:`_least_lines`).  An
        open side bounds nothing, so it has no term.
        """
        terms = [e.node for e in self.margins]
        for c, (lo, hi) in zip(self.coords, self.box):
            if lo > -math.inf:
                terms.append(Bin("-", Var(c), Num(lo)))
            if hi < math.inf:
                terms.append(Bin("-", Num(hi), Var(c)))
        return terms


def _side(v, open_side: float) -> float:
    """A box side as a float, ``open_side`` for None; raises ``DomainError`` for a non-number or NaN."""
    if v is None:
        return open_side
    side = number(v, DomainError, "box sides must be numbers or None")
    if isinstance(v, str) or side != side:
        raise DomainError(f"box sides must be numbers or None, not {v!r}")
    return side


def _least_lines(terms, render: Callable, m: str) -> list:
    """Source lines setting the name ``m`` to the least of ``terms``, using ``v``.

    ``render(node)`` is the source of a term's value.  The least starts at
    ``inf`` and takes each term that is ``<`` it, so a NaN term is ignored;
    a term that raises gives ``-inf``.
    """
    lines = [f"{m} = _inf"]
    if terms:
        lines.append("try:")
        for node in terms:
            lines += [f"    if (v := {render(node)}) < {m}:", f"        {m} = v"]
        lines += ["except _EVAL_ERRORS:", f"    {m} = -_inf"]
    return lines


def _margin_lines(domain: Domain, names: Mapping[str, str]) -> Callable:
    """``least(m)``: the lines of :func:`_least_lines` setting ``m`` to the margin at ``_v0, _v1, ...``."""
    return functools.partial(_least_lines, domain.terms, lambda node: _render_py(node, names))


def _compile_margin(domain: Domain, params: Mapping[str, float]) -> Callable:
    """Generate p -> the least of ``domain.terms`` as one list-in function, by :func:`_least_lines`.

    The attribute ``lower(lo, hi)`` is a lower bound of the margin at every
    list of floats p with ``lo[j] <= p[j] <= hi[j]``, or ``-inf`` where it
    proves nothing (:func:`liecomplete.interval.margin_lower`).  It starts
    as a stand-in that generates the bound and puts it in its place on its
    first call, so a caller that holds the stand-in builds the bound once,
    and the interval module is imported only when a bound is first asked for.
    """
    names = _name_map(domain.coords, params)
    margin = _define("\n".join([
        "def _margin(p):",
        f"    {_names('_v', domain.dim)}= p",
        *("    " + line for line in _margin_lines(domain, names)("m")),
        "    return m",
    ]))["_margin"]

    def lower(lo, hi):
        if margin.lower is lower:
            from .interval import margin_lower
            margin.lower = margin_lower(domain, names)
        return margin.lower(lo, hi)

    margin.lower = lower
    return margin


def _compile_contraction(fields, rows: tuple, domain: Domain, params, margin: Callable) -> Callable:
    """Generate ``_rhs(c..., y)`` -> sum_i c_i zeta_i(y), with one leading parameter per entry of ``rows``.

    Each component adds ``c_i * field`` over ``rows`` in order onto ``0.0``,
    as a loop accumulating into a zeroed list would; literal-0 entries are
    left out and literal-1 entries are the bare coefficient, neither of
    which changes the sum.  The leading ``0.0 +`` (which turns a -0.0
    product into 0.0) is dropped only before a bare coefficient, which is
    never zero.  A subtree that the fields compute more than once across
    the components is computed once, into a temp ``_tK`` before the
    components (:func:`liecomplete.expr._shared_subtrees`); the values are
    the same, and a raise is still one of ``EVAL_ERRORS``.  The function
    carries the attribute ``kernel``, the pair of ``margin`` (the domain's,
    compiled by :func:`_compile_margin`) and the integrator's run
    (:func:`liecomplete.flow._kernel`) with that margin and with the
    contraction of the components that move, and its temps, inlined; a
    component made of bare coefficients alone, or of none, is constant along
    the run, and is handed to the run as its source.  The run takes the
    coefficients as one tuple, the rhs's ``args``, and unpacks them, so they
    are plain locals of both functions.
    """
    from .flow import _kernel
    coords = domain.coords
    names = _name_map(coords, params)
    used = [[(i, fields[i][j].node) for i in rows if not _is_const(fields[i][j].node, 0.0)]
            for j in range(len(coords))]
    temps_lines, temps = _shared_subtrees([node for terms in used for _, node in terms], names)
    comps = []
    for terms in used:
        terms = [f"_c{i}" if _is_const(node, 1.0) else f"_c{i} * {_render_py(node, names, temps)}"
                 for i, node in terms]
        if not terms or "*" in terms[0]:
            terms.insert(0, "0.0")
        comps.append(" + ".join(terms))
    const = {j: comps[j] for j, terms in enumerate(used) if all(_is_const(node, 1.0) for _, node in terms)}
    moving = [j for j in range(len(coords)) if j not in const]
    values = _tuple(comps[j] for j in moving)
    coeffs = _tuple(f"_c{i}" for i in rows)
    kernel, kernel_names = _kernel(
        len(coords), [f"({coeffs}) = args"],
        lambda s: [*temps_lines, f"{_tuple(f'k{s}_{j}' for j in moving)}= {values}"],
        const, _margin_lines(domain, names))
    src = "\n".join([
        f"def _rhs({coeffs}y):",
        f"    {_names('_v', len(coords))}= y",
        *("    " + line for line in temps_lines),
        f"    return [{', '.join(comps)}]",
        *kernel,
        "_rhs.kernel = (_margin, integrate)",
    ])
    return _define(src, dict(kernel_names, _margin=margin))["_rhs"]


class GAction:
    """A Lie algebra action: fields[i][j] is the j-th component of zeta(e_i).

    ``e_i`` are the basis vectors of the group model's algebra.  A lift under
    an action with ``winding`` set counts the turns of (x0, x1) about 0.
    """

    def __init__(
        self,
        group,
        domain: Domain,
        fields: Sequence[Sequence[Expr]],
        params: Optional[Mapping[str, float]] = None,
        winding: bool = False,
    ):
        d, n = group.dim, domain.dim
        # before the algebra, whose structure constants are d^3 numbers
        if (len(fields) != d or any(len(row) != n for row in fields)
                or not all(isinstance(e, Expr) for row in fields for e in row)):
            raise ActionError(f"fields must be a {d}x{n} grid of expressions")
        self.group = group
        self.algebra = group.algebra
        self.domain = domain
        self.params = {k: number(v, ActionError, f"parameter {k!r} must be a number")
                       for k, v in (params or {}).items()}
        self.winding = winding
        self.fields = tuple(tuple(row) for row in fields)
        self._dim = n
        shadowed = [k for k in self.params if k in domain.coords]
        if shadowed:   # the expressions would read the coordinate
            raise ActionError(f"parameter {shadowed[0]!r} is also a coordinate name")

        # _fields_at: all basis fields at a list of floats, flat in row order,
        # with no domain check; fields and margins name coordinates and params only
        flat = [e for row in self.fields for e in row]
        try:
            self._fields_at = checked(compile_scalars(flat, domain.coords, self.params),
                                      "fields", ActionError)
            # the margin the rhs kernels inline; callers read _margin, which starts as it
            self._margin = self._kernel_margin = _compile_margin(domain, self.params)
        except ExprNameError as e:
            raise ActionError(str(e)) from None
        self._contractions: dict = {}  # which coefficients are non-zero -> contraction
        self._partials = None  # lazy, for the homomorphism check

    @property
    def dim_algebra(self) -> int:
        return self.algebra.dim

    @property
    def dim_manifold(self) -> int:
        return self.domain.dim

    # -- point predicates ---------------------------------------------------

    def _point(self, p) -> list:
        """The floats of the point ``p``, one per coordinate, or ``OutsideDomainError``."""
        return floats(p, OutsideDomainError, _NOT_A_POINT, self._dim)

    def margin(self, p) -> float:
        """The domain margin at p: positive exactly inside, ``-inf`` at a non-finite point."""
        vals = floats(p, OutsideDomainError, _NOT_A_POINT, self._dim)   # _point, inlined: it is hot
        if not all(map(math.isfinite, vals)):
            return -math.inf
        return self._margin(vals)

    def contains(self, p) -> bool:
        return self.margin(p) > 0.0

    def require_inside(self, p) -> list:
        """The floats of ``p``; raises ``OutsideDomainError`` unless they are a point inside the domain."""
        vals = self._point(p)
        if not self.contains(vals):
            raise OutsideDomainError(f"point {list(p)} is outside the domain")
        return vals

    # -- field evaluation ---------------------------------------------------

    def field_matrix(self, p) -> list:
        """All basis fields at p as d rows of n floats.  No domain check.

        The floats of p go through ``_fields_at``, whose ``ActionError`` names them.
        """
        flat = self._fields_at(self._point(p))
        n = self.dim_manifold
        return [list(flat[i:i + n]) for i in range(0, len(flat), n)]

    def zeta(self, X, p) -> list:
        """Value of the fundamental field of X at p (p must be inside)."""
        X = floats(X, ActionError, "zeta expects a d-vector of algebra coefficients", self.dim_algebra)
        self.require_inside(p)
        return [sum(map(mul, X, col)) for col in zip(*self.field_matrix(p))]

    def rhs(self, X) -> Callable:
        """Velocity field y -> sum_i X_i zeta_i(y) as a fast list-in/list-out fn.

        The coefficients are checked and handed to :meth:`_contraction`.
        The result is ``partial(func, *coefficients)``, and ``func`` carries
        ``kernel``: the domain margin and the integrator's run with both
        inlined, which the integrator calls with ``rhs.args`` when it is
        passed that margin.
        """
        coeffs = floats(X, ActionError, "rhs expects a d-vector of algebra coefficients", self.dim_algebra)
        return self._contraction(coeffs)

    def _contraction(self, coeffs) -> Callable:
        """The rhs of the floats ``coeffs``, one per basis vector, with no check.

        The contraction and its kernel are generated once per set of
        non-zero coefficients, which keys the cache, and the rhs binds those
        coefficients in order to it with ``functools.partial``, so no
        function is built per call; rows whose coefficient is zero are not
        evaluated.
        """
        nonzero = tuple(map(bool, coeffs))
        rhs = self._contractions.get(nonzero)
        if rhs is None:
            rows = tuple(i for i, c in enumerate(nonzero) if c)
            rhs = self._contractions[nonzero] = _compile_contraction(
                self.fields, rows, self.domain, self.params, self._kernel_margin
            )
        return functools.partial(rhs, *filter(None, coeffs))

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
    open sides are sampled at ``+-DEFAULT_SAMPLING_HALF_WIDTH``.  A ``count``
    that is not an int from 0 to ``MAX_SAMPLES`` is a ``SamplingError``.
    """
    if type(count) is not int or count < 0:
        raise SamplingError("count must be a non-negative integer")
    if count > MAX_SAMPLES:
        raise SamplingError(f"count {count} passes the cap of {MAX_SAMPLES} samples")
    rng = random.Random(seed)
    w = DEFAULT_SAMPLING_HALF_WIDTH
    sides = [(-w if lo == -math.inf else lo, w if hi == math.inf else hi) for lo, hi in action.domain.box]
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
    ``ActionError``, also for a one-dimensional algebra, which has no pair
    to bracket; a residual that is NaN (the bracket sum overflowed to
    ``inf - inf``) is returned as NaN, which no limit passes.  A ``sample_count``
    that is not an int from 1 (none would pass vacuously) to ``MAX_SAMPLES``
    is a ``SamplingError``.
    """
    positive_int(sample_count, SamplingError, "sample_count")
    d, n = action.dim_algebra, action.dim_manifold
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
