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
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import AbelianGroup, AlgebraError, LieAlgebra, MatrixGroup, validate_group_model
from .expr import Expr, ExprNameError, compile_scalars

DEFAULT_SAMPLING_HALF_WIDTH = 2.0


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


def _margin_fn(domain: Domain, params: Mapping[str, float]) -> Callable:
    """Compile min(margins, box distances) into one positional function."""
    exprs = list(domain.margins)
    compiled = None
    if exprs:
        compiled = compile_scalars(exprs, domain.coords, params)
    box = domain.box

    def margin(*vals) -> float:
        m = math.inf
        if compiled is not None:
            try:
                for v in compiled(*vals):
                    if v < m:
                        m = v
            except (ValueError, ZeroDivisionError, OverflowError):
                return -math.inf
        if box is not None:
            for x, b in zip(vals, box):
                if b is None:
                    continue
                lo, hi = b
                if lo is not None and x - lo < m:
                    m = x - lo
                if hi is not None and hi - x < m:
                    m = hi - x
        return m

    return margin


class GAction:
    """A Lie algebra action: fields[i][j] is the j-th component of zeta(e_i)."""

    def __init__(
        self,
        algebra: LieAlgebra,
        group,
        domain: Domain,
        fields: Sequence[Sequence[Expr]],
        params: Optional[Mapping[str, float]] = None,
        winding_plane: Optional[Callable] = None,
        name: str = "",
    ):
        self.algebra = algebra
        self.group = group
        self.domain = domain
        self.params = dict(params or {})
        self.name = name
        self.winding_plane = winding_plane

        d, n = algebra.dim, domain.dim
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

        validate_group_model(algebra, group)

        flat = [e for row in self.fields for e in row]
        self._field_fn = compile_scalars(flat, domain.coords, self.params)
        self._margin = _margin_fn(domain, self.params)
        # list-argument variant for the integrator's hot path
        self._margin_unpacked = lambda p, _m=self._margin: _m(*p)
        self._partials = None  # lazy (d, n, n) grid for the homomorphism check

    @property
    def dim_algebra(self) -> int:
        return self.algebra.dim

    @property
    def dim_manifold(self) -> int:
        return self.domain.dim

    # -- point predicates ---------------------------------------------------

    def margin(self, p) -> float:
        return self._margin(*[float(v) for v in p])

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
        """All basis fields at p as a (d, n) array.  No domain check."""
        flat = self._field_fn(*[float(v) for v in p])
        return np.array(flat, dtype=float).reshape(self.dim_algebra, self.dim_manifold)

    def zeta(self, X, p) -> np.ndarray:
        """Value of the fundamental field of X at p (p must be inside)."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.dim_algebra,):
            raise ActionError("zeta expects a d-vector of algebra coefficients")
        self.require_inside(p)
        return X @ self.field_matrix(p)

    def rhs(self, X) -> Callable:
        """Velocity field y -> sum_i X_i zeta_i(y) as a fast list-in/list-out fn."""
        d, n = self.dim_algebra, self.dim_manifold
        coeffs = [float(v) for v in X]
        field_fn = self._field_fn

        def f(y):
            flat = field_fn(*y)
            out = [0.0] * n
            for i in range(d):
                ci = coeffs[i]
                if ci != 0.0:
                    base = i * n
                    for j in range(n):
                        out[j] += ci * flat[base + j]
            return out

        return f

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


def sampling_box(action: GAction) -> list:
    """Box used for rejection sampling; unbounded sides default to +-2."""
    w = DEFAULT_SAMPLING_HALF_WIDTH
    out = []
    box = action.domain.box
    for j in range(action.dim_manifold):
        lo, hi = (None, None) if box is None or box[j] is None else box[j]
        out.append((lo if lo is not None else -w, hi if hi is not None else w))
    return out


def sample_points(
    action: GAction,
    count: int,
    seed: int = 0,
    margin_cutoff: float = 0.1,
    box: Optional[Sequence[Tuple[float, float]]] = None,
) -> np.ndarray:
    """Rejection-sample ``count`` points with margin above ``margin_cutoff``."""
    rng = np.random.default_rng(seed)
    box = list(box) if box is not None else sampling_box(action)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
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
        if action.margin(p) > margin_cutoff:
            out.append(p)
    return np.array(out)


def check_homomorphism(
    action: GAction,
    sample_count: int = 200,
    seed: int = 0,
    margin_cutoff: float = 0.1,
) -> float:
    """Max residual of [zeta_i, zeta_j] - zeta([e_i, e_j]) over sampled points.

    The vector-field bracket is computed from symbolic partial derivatives of
    the stored component expressions, so no finite differencing is involved.
    """
    d, n = action.dim_algebra, action.dim_manifold
    if d < 2:
        return 0.0
    points = sample_points(action, sample_count, seed=seed, margin_cutoff=margin_cutoff)
    partials = action._partial_fns()
    c = action.algebra.c
    worst = 0.0
    for p in points:
        vals = [float(v) for v in p]
        F = action.field_matrix(vals)
        # dF[i][k][l] = d(field_i^k)/dx_l
        dF = [
            [partials[i][k](*vals) for k in range(n)]
            for i in range(d)
        ]
        for i, j in itertools.combinations(range(d), 2):
            expected = c[i, j] @ F
            sq = 0.0
            for k in range(n):
                lie = 0.0
                for l in range(n):
                    lie += F[i, l] * dF[j][k][l] - F[j, l] * dF[i][k][l]
                sq += (lie - expected[k]) ** 2
            r = math.sqrt(sq)
            if r > worst:
                worst = r
    return worst
