"""Open domains in R^n and Lie algebra actions on them.

A :class:`GAction` stores the infinitesimal action directly: one expression
row per algebra basis vector, one component expression per coordinate.  The
sign convention is fixed operationally by the worked scenarios — lifting the
counterclockwise unit loop in the helicoidal scenario must multiply the third
coordinate by ``exp(-2*pi*alpha)`` (see tests); implementations that flip the
pairing between group velocities and fields fail that oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .expr import EVAL_ERRORS, Expr, _define, _is_const, _name_map, _py_float, _render_py, compile_scalars

DEFAULT_SAMPLING_HALF_WIDTH = 2.0
SAMPLING_MARGIN = 0.1  # sampled points keep at least this margin


class DomainError(ValueError):
    pass


class OutsideDomainError(ValueError):
    pass


class ActionError(ValueError):
    pass


class SamplingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Domain:
    """Open subset of R^n: box bounds (optional per side) plus exclusion margins.

    A point is inside iff every margin expression is positive and every finite
    box bound is strictly respected.  ``margin`` below is the min of all of
    these, so it is continuous and positive exactly on the interior.
    """

    coords: tuple
    box: Optional[tuple] = None  # per-coord (lo, hi), entries may be None
    margins: tuple = ()

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords or len(set(coords)) != len(coords):
            raise DomainError("coordinate names must be non-empty and distinct")
        object.__setattr__(self, "coords", coords)
        if self.box is not None:
            box = tuple(tuple(b) if b is not None else None for b in self.box)
            if len(box) != len(coords):
                raise DomainError("box must give one (lo, hi) pair per coordinate")
            for b in box:
                if b is None:
                    continue
                lo, hi = b
                if lo is not None and hi is not None and not lo < hi:
                    raise DomainError("box bounds must satisfy lo < hi")
            object.__setattr__(self, "box", box)
        # other names in margins are parameters, bound when an action is built
        object.__setattr__(self, "margins", tuple(self.margins))

    @property
    def dim(self) -> int:
        return len(self.coords)


def _compile_margin(domain: Domain, params: Mapping[str, float]) -> Callable:
    """Generate p -> min(margins, box distances) as one list-in function.

    The minimum starts at ``inf`` and takes each value that is ``<`` it, so a
    NaN margin is ignored; a margin expression that raises gives ``-inf``.
    """
    names = _name_map(domain.coords, params)
    lines = [
        "def _margin(p):",
        f"    {''.join(f'_v{j}, ' for j in range(domain.dim))}= p",
        "    m = _inf",
    ]
    if domain.margins:
        lines.append("    try:")
        for e in domain.margins:
            lines += [
                f"        v = {_render_py(e.node, names)}",
                "        if v < m:",
                "            m = v",
            ]
        lines += [
            "    except (ValueError, ZeroDivisionError, OverflowError):",
            "        return -_inf",
        ]
    for j, b in enumerate(domain.box or ()):
        lo, hi = b if b is not None else (None, None)
        if lo is not None:
            lines += [f"    if (v := _v{j} - {_py_float(lo)}) < m:", "        m = v"]
        if hi is not None:
            lines += [f"    if (v := {_py_float(hi)} - _v{j}) < m:", "        m = v"]
    lines.append("    return m")
    return _define("\n".join(lines), "_margin")


def _compile_contraction(fields, rows: tuple, coords, params) -> Callable:
    """Generate a factory: coefficients of ``rows`` -> y -> sum_i c_i zeta_i(y).

    Each component adds ``c_i * field`` over ``rows`` in order onto ``0.0``,
    as a loop accumulating into a zeroed list would; literal-0 entries are
    left out and literal-1 entries are the bare coefficient, neither of
    which changes the sum.  The leading ``0.0 +`` (which turns a -0.0
    product into 0.0) is dropped only before a bare coefficient, which is
    never zero.
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
        f"        {''.join(f'_v{j}, ' for j in range(len(coords)))}= y",
        f"        return [{', '.join(comps)}]",
        "    return _rhs",
    ])
    return _define(src, "_make")


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
        self.group = group
        self.algebra = group.algebra
        self.domain = domain
        self.params = dict(params or {})
        self.name = name
        self.winding_plane = winding_plane

        d, n = group.dim, domain.dim
        if len(fields) != d or any(len(row) != n for row in fields):
            raise ActionError(f"fields must be a {d}x{n} grid of expressions")
        self.fields = tuple(tuple(row) for row in fields)

        allowed = set(domain.coords) | set(self.params)
        for i, row in enumerate(self.fields):
            for j, e in enumerate(row):
                extra = e.free_names - allowed
                if extra:
                    raise ActionError(
                        f"field[{i}][{j}] uses unknown name(s) {sorted(extra)}"
                    )
        for m in domain.margins:
            extra = m.free_names - allowed
            if extra:
                raise ActionError(f"margin uses unknown name(s) {sorted(extra)}")

        flat = [e for row in self.fields for e in row]
        self._field_fn = compile_scalars(flat, domain.coords, self.params)
        self._margin = _compile_margin(domain, self.params)
        self._contractions: dict = {}  # which coefficients are non-zero -> rhs factory
        self._partials = None  # lazy (d, n, n) grid for the homomorphism check

    @property
    def dim_algebra(self) -> int:
        return self.algebra.dim

    @property
    def dim_manifold(self) -> int:
        return self.domain.dim

    # -- point predicates ---------------------------------------------------

    def margin(self, p) -> float:
        return self._margin([float(v) for v in p])

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

    def field_matrix(self, p) -> np.ndarray:
        """All basis fields at p as a (d, n) array.  No domain check.

        Raises ``ActionError`` naming p where a field cannot be evaluated or
        is not finite.
        """
        vals = [float(v) for v in p]
        try:
            flat = self._field_fn(*vals)
        except EVAL_ERRORS as e:
            raise ActionError(f"fields cannot be evaluated at {vals}: {e}") from None
        if not all(map(math.isfinite, flat)):
            raise ActionError(f"fields are not finite at {vals}")
        return np.array(flat, dtype=float).reshape(self.dim_algebra, self.dim_manifold)

    def zeta(self, X, p) -> np.ndarray:
        """Value of the fundamental field of X at p (p must be inside)."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.dim_algebra,):
            raise ActionError("zeta expects a d-vector of algebra coefficients")
        self.require_inside(p)
        return X @ self.field_matrix(p)

    def rhs(self, X) -> Callable:
        """Velocity field y -> sum_i X_i zeta_i(y) as a fast list-in/list-out fn.

        The contraction is generated once per set of non-zero coefficients;
        rows whose coefficient is zero are not evaluated.
        """
        coeffs = [float(v) for v in X]
        nonzero = tuple(map(bool, coeffs))
        make = self._contractions.get(nonzero)
        if make is None:
            if len(coeffs) != self.dim_algebra:
                raise ActionError("rhs expects a d-vector of algebra coefficients")
            rows = tuple(i for i, c in enumerate(nonzero) if c)
            make = self._contractions[nonzero] = _compile_contraction(
                self.fields, rows, self.domain.coords, self.params
            )
        return make(*[c for c in coeffs if c])

    # -- homomorphism check -------------------------------------------------

    def _partial_fns(self):
        if self._partials is None:
            grid = []
            for row in self.fields:
                comp = []
                for e in row:
                    diffs = [e.diff(c) for c in self.domain.coords]
                    comp.append(compile_scalars(diffs, self.domain.coords, self.params))
                grid.append(comp)
            self._partials = grid
        return self._partials


def sample_points(action: GAction, count: int, seed: int = 0) -> np.ndarray:
    """Rejection-sample ``count`` points with margin above ``SAMPLING_MARGIN``.

    Points are drawn from the domain's box, whose unbounded sides default to
    ``+-DEFAULT_SAMPLING_HALF_WIDTH``.
    """
    rng = np.random.default_rng(seed)
    w = DEFAULT_SAMPLING_HALF_WIDTH
    box = [b or (None, None) for b in action.domain.box or [None] * action.dim_manifold]
    lo = np.array([-w if b[0] is None else b[0] for b in box])
    hi = np.array([w if b[1] is None else b[1] for b in box])
    out = []
    attempts = 0
    max_attempts = max(10_000, 200 * count)
    while len(out) < count:
        if attempts >= max_attempts:
            raise SamplingError(
                f"domain sampling acceptance too low ({len(out)}/{attempts} accepted)"
            )
        p = lo + (hi - lo) * rng.random(len(lo))
        attempts += 1
        if action.margin(p) > SAMPLING_MARGIN:
            out.append(p)
    return np.array(out)


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
    ``inf - inf``) is returned as NaN, which no limit passes.
    """
    d, n = action.dim_algebra, action.dim_manifold
    if d < 2:
        return 0.0
    points = sample_points(action, sample_count, seed=seed)
    partials = action._partial_fns()
    c = action.algebra.c
    worst = 0.0
    for p in points:
        vals = [float(v) for v in p]
        F = action.field_matrix(vals)
        rows = F.tolist()   # Python floats: an overflow gives inf or NaN silently
        # dF[i][k][l] = d(field_i^k)/dx_l
        try:
            dF = [
                [partials[i][k](*vals) for k in range(n)]
                for i in range(d)
            ]
        except EVAL_ERRORS as e:
            raise ActionError(f"field partials cannot be evaluated at {vals}: {e}") from None
        if not all(math.isfinite(v) for row in dF for comp in row for v in comp):
            raise ActionError(f"field partials are not finite at {vals}")
        for i, j in itertools.combinations(range(d), 2):
            expected = (c[i, j] @ F).tolist()
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
