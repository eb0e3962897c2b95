"""Piecewise group paths and their lifts through the graph foliation.

A :class:`GPath` is a curve in the group given by segments, each carrying a
total displacement and a relative time weight; the path clock is normalized
to [0, 1] at construction.  Its left-logarithmic derivative is piecewise
constant, which is what the lifting equation consumes: the lift of a path
``c`` starting at ``x0`` solves ``y' = sum_i f_i(t) zeta_i(y)`` where ``f`` is
that derivative.  The group component itself advances in closed form, so the
lift endpoint's group part is exact whenever the lift completes.

Segments:

* ``LinearSeg(delta, duration)`` — abelian model only; the group moves by
  ``delta`` in total over the segment, so ``duration`` is a pure clock weight.
* ``ExpSeg(X, duration)`` — either model; ``X`` is a rate in basis
  coordinates: the segment traces ``c_prev * exp(tau * X)`` for
  ``tau in [0, duration]`` and advances by ``exp(duration * X)`` in total.
  Splitting an ExpSeg into consecutive pieces with the same ``X`` therefore
  never changes the endpoint.

The flow of one fundamental field, :func:`flow`, is the lift of a one-segment
``ExpSeg`` path from the identity, and a word of flows, :func:`run_word`, is
the lift of one ``ExpSeg`` per stage; both map the unit path clock back to
flow time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from .algebra import AlgebraError
from .flow import COMPLETE, ESCAPED, IntegratorConfig, integrate_autonomous

TRACE_TARGET = 64  # minimum samples in a padded trace

__all__ = [
    "LinearSeg",
    "ExpSeg",
    "GPath",
    "LiftResult",
    "FlowOutcome",
    "WordOutcome",
    "PathError",
    "LiftEscapedError",
    "lift_path",
    "flow",
    "run_word",
    "equivariance_check",
]


class PathError(ValueError):
    pass


class LiftEscapedError(RuntimeError):
    def __init__(self, result: "LiftResult"):
        super().__init__(
            f"lift escaped at t={result.escape_time} (segment {result.failed_segment})"
        )
        self.result = result


@dataclass(frozen=True)
class LinearSeg:
    delta: tuple
    duration: float = 1.0


@dataclass(frozen=True)
class ExpSeg:
    X: tuple
    duration: float = 1.0


_ENDPOINT_MATCH_TOL = 1e-9


class GPath:
    """Piecewise path in the group model, clock normalized to [0, 1]."""

    def __init__(self, group, start, segments: Sequence):
        self.group = group
        try:
            self.start = group.element(start)
        except AlgebraError as exc:
            raise PathError(f"bad start point: {exc}") from exc
        segs = list(segments)
        d = group.dim
        raw: list = []
        durations: List[float] = []
        for s in segs:
            if not (s.duration > 0.0 and math.isfinite(s.duration)):
                raise PathError("segment durations must be positive and finite")
            if isinstance(s, LinearSeg):
                if group.kind != "abelian":
                    raise PathError("LinearSeg requires the abelian group model")
                raw.append(s.delta)   # total displacement
            elif isinstance(s, ExpSeg):
                raw.append(s.X)       # a rate; scaled by the duration below
            else:
                raise PathError(f"unknown segment type {type(s).__name__}")
            durations.append(float(s.duration))
        try:
            vecs = np.array(raw, dtype=float) if segs else np.empty((0, d))
            shape_ok = vecs.shape == (len(segs), d)
        except ValueError:   # ragged: the vectors have different lengths
            shape_ok = False
        if not shape_ok:
            raise PathError(f"segment vector must have length {d}")
        # the total log-displacement of an ExpSeg is duration * X
        scale = [dur if isinstance(s, ExpSeg) else 1.0 for s, dur in zip(segs, durations)]
        with np.errstate(over="ignore"):
            vecs = vecs * np.array(scale).reshape(-1, 1)
        if not np.all(np.isfinite(vecs)):
            raise PathError("segment vector must be finite")
        self.segments = tuple(segs)
        self._vecs = vecs
        self._vec_rows = vecs.tolist()
        total = sum(durations)
        self.widths = [dur / total for dur in durations] if segs else []
        bounds = [0.0]
        for w in self.widths:
            bounds.append(bounds[-1] + w)
        if segs:
            bounds[-1] = 1.0
        self._bounds = bounds

        # closed-form prefix displacements: group point at each segment start
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                self._prefix = group.products(self.start, group.exp_segment(vecs))
        except AlgebraError as exc:
            raise PathError(f"bad segment: {exc}") from exc
        # a matrix point that rounds to a singular one (say, exp(1e300 D)) has
        # left the range of floating point just as an overflowed one has
        if not np.all(np.isfinite(self._prefix)) or (
                group.kind == "matrix" and not np.linalg.slogdet(self._prefix)[0].all()):
            raise PathError("the path's group points are not finite and invertible")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def endpoint(self):
        return self._prefix[-1]

    def velocity(self, k: int) -> list:
        """Left-logarithmic derivative on segment k w.r.t. the path clock."""
        w = self.widths[k]
        return [v / w for v in self._vec_rows[k]]

    def group_point(self, k, frac):
        """Group point a fraction ``frac`` of the way through segment k.

        ``k`` and ``frac`` may also be equal-length sequences, for a stack of points.
        """
        # a LinearSeg's point is the abelian exp(frac * delta), which is frac * delta
        return self.group.mul(self._prefix[k], self.group.exp_segment(self._vecs[k], frac))

    def reverse(self) -> "GPath":
        segs = []
        for s in reversed(self.segments):
            if isinstance(s, LinearSeg):
                segs.append(LinearSeg(tuple(-v for v in s.delta), s.duration))
            else:
                segs.append(ExpSeg(tuple(-v for v in s.X), s.duration))
        return GPath(self.group, self.endpoint(), segs)

    def concat(self, other: "GPath") -> "GPath":
        _check_group_compat(self.group, other.group)
        if self.group.distance(self.endpoint(), other.start) > _ENDPOINT_MATCH_TOL:
            raise PathError("second path must start at the first path's endpoint")
        segs = []
        for p in (self, other):
            # rebuild from total displacements so endpoints survive reweighting
            for s, vec, w in zip(p.segments, p._vecs, p.widths):
                if isinstance(s, LinearSeg):
                    segs.append(LinearSeg(tuple(vec), w))
                else:
                    segs.append(ExpSeg(tuple(vec / w), w))
        return GPath(self.group, self.start, segs)


@dataclass
class LiftResult:
    status: str
    endpoint_g: object
    endpoint_m: tuple
    path: GPath
    rows: list                      # [(t, k, frac, m), ...]: frac of the way through segment k
    escape_time: Optional[float] = None
    failed_segment: Optional[int] = None
    winding: Optional[float] = None   # signed turns of the tracked plane projection
    low_confidence: bool = False
    steps: int = 0

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE

    @cached_property
    def trace(self) -> list:
        """``[(t, g, m), ...]`` with t in [0, 1]; group points resolved on first read."""
        return _resolve(self.path, self.rows)


@dataclass
class FlowOutcome:
    status: str
    endpoint: tuple
    trace: list                      # [(t, point tuple), ...] times in flow units
    escape_time: Optional[float] = None
    low_confidence: bool = False
    steps: int = 0

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE


@dataclass
class WordOutcome:
    status: str
    endpoint: tuple
    trace: list
    escape_time: Optional[float] = None   # global elapsed (unsigned) time
    failed_stage: Optional[int] = None
    stage_escape_time: Optional[float] = None  # signed time within the stage
    low_confidence: bool = False
    steps: int = 0


class _WindingTracker:
    """Unwrapped angle of a plane projection along the lift.

    Per-step jumps are folded into (-pi, pi]; any step that appears to rotate
    by >= pi/2 is subdivided on the step interpolant until jumps are small, so
    the fold is exact for trajectories the integrator resolves.
    """

    __slots__ = ("plane", "prev", "total")

    def __init__(self, plane: Callable, y0):
        self.plane = plane
        u, v = plane(y0)
        self.prev = math.atan2(v, u)
        self.total = 0.0

    @staticmethod
    def _fold(d: float) -> float:
        d = math.remainder(d, math.tau)
        if d == -math.pi:
            d = math.pi
        return d

    def _advance(self, interp, s0, th0, s1, depth) -> float:
        u, v = self.plane(interp(s1))
        th1 = math.atan2(v, u)
        d = self._fold(th1 - th0)
        if abs(d) >= math.pi / 2 and depth < 24:
            sm = 0.5 * (s0 + s1)
            thm = self._advance(interp, s0, th0, sm, depth + 1)
            return self._advance(interp, sm, thm, s1, depth + 1)
        self.total += d
        return th1

    def feed(self, interp, y_end):
        u, v = self.plane(y_end)
        th1 = math.atan2(v, u)
        d = self._fold(th1 - self.prev)
        if abs(d) < math.pi / 2:
            self.total += d
            self.prev = th1
        else:
            self.prev = self._advance(interp, 0.0, self.prev, 1.0, 0)


def _check_group_compat(g1, g2):
    if g1.kind != g2.kind or g1.dim != g2.dim:
        raise PathError("the group models do not match")
    if g1.kind == "matrix" and (g1.n != g2.n or not np.allclose(g1.basis, g2.basis)):
        raise PathError("the group models use different matrix bases")


def lift_path(
    action,
    path: GPath,
    x0,
    cfg: Optional[IntegratorConfig] = None,
) -> LiftResult:
    """Lift a group path through the graph foliation starting over ``x0``.

    Integrates the lifting equation segment by segment (the group velocity is
    constant on each segment); the group component advances in closed form.
    Escape anywhere truncates the lift and reports the path time and segment.
    Trace rows keep ``(t, k, frac, m)``, a fraction ``frac`` of the way
    through segment ``k`` with row 0 at the path start; their group points
    are computed when ``trace`` is first read.
    """
    cfg = cfg or IntegratorConfig()
    _check_group_compat(action.group, path.group)
    x0 = [float(v) for v in x0]
    action.require_inside(x0)

    tracker = None
    if action.winding_plane is not None:
        tracker = _WindingTracker(action.winding_plane, x0)

    rows: list = [(0.0, 0, 0.0, tuple(x0))]
    small_path = path.n_segments <= 8
    kept_steps: list = []  # (t_abs0, t_abs1, interp, seg_index) for padding
    margin = action._margin
    y = x0
    steps_total = 0

    def on_step(t0, y0_, t1, y1, interp):
        # k, t_base and w are those of the segment being integrated
        if tracker is not None:
            tracker.feed(interp, y1)
        rows.append((t_base + t1, k, t1 / w, tuple(y1)))
        if small_path:
            kept_steps.append((t_base + t0, t_base + t1, interp, k))

    for k in range(path.n_segments):
        w = path.widths[k]
        t_base = path._bounds[k]
        status, t_end, y_end, steps, low = integrate_autonomous(
            action.rhs(path.velocity(k)), y, w, cfg, margin, on_step
        )
        steps_total += steps
        if status != COMPLETE:
            break
        y = list(y_end)
    else:
        status = COMPLETE

    if small_path:
        rows = _padded_rows(rows, kept_steps, path)
    winding = tracker.total / math.tau if tracker else None
    if status == COMPLETE:
        return LiftResult(COMPLETE, path.endpoint(), tuple(y), path, rows,
                          winding=winding, steps=steps_total)
    return LiftResult(
        status,
        path.group_point(k, min(t_end / w, 1.0)),
        y_end,
        path,
        rows,
        escape_time=t_base + t_end if status == ESCAPED else None,
        failed_segment=k,
        winding=winding,
        low_confidence=low,
        steps=steps_total,
    )


def _padded_rows(rows, kept_steps, path: GPath):
    """Densify traces of few-segment paths to at least TRACE_TARGET rows."""
    if len(rows) >= TRACE_TARGET + 1 or not kept_steps:
        return rows
    per = int(math.ceil(TRACE_TARGET / len(kept_steps)))
    out = [rows[0]]
    for (t0, t1, interp, k) in kept_steps:
        w = path.widths[k]
        tb = path._bounds[k]
        for i in range(1, per + 1):
            s = i / per
            t = t0 + s * (t1 - t0)
            out.append((t, k, (t - tb) / w, tuple(interp(s))))
    out[-1] = rows[-1]
    return out


def _resolve(path: GPath, rows) -> list:
    """Trace rows ``(t, g, m)`` from rows ``(t, k, frac, m)`` of a lift of ``path``."""
    t0, _, _, m0 = rows[0]
    rest = rows[1:]
    points = path.group_point([k for (_, k, _, _) in rest], [frac for (_, _, frac, _) in rest])
    return [(t0, path.start, m0)] + [(t, g, m) for (t, _, _, m), g in zip(rest, points)]


def flow(action, X, t: float, x0, cfg: Optional[IntegratorConfig] = None) -> FlowOutcome:
    """Flow x0 along the fundamental field of X for time t (t may be negative).

    This is the one-stage word ``[(X, t)]``: ``cfg.max_step`` applies on the
    unit lift clock, so in flow time it scales by ``|t|``.
    """
    out = run_word(action, [(X, t)], x0, cfg)
    sign = -1.0 if t < 0.0 else 1.0
    trace = [(sign * s, y) for (s, y) in out.trace]
    return FlowOutcome(
        out.status, out.endpoint, trace, out.stage_escape_time, out.low_confidence, out.steps
    )


def run_word(action, word, x0, cfg: Optional[IntegratorConfig] = None) -> WordOutcome:
    """Compose flows for a word [(X, t), ...]; stops at the first escape.

    The word is lifted as one group path from the identity with an
    ``ExpSeg(sign(t) * X, |t|)`` per non-zero stage.  The returned trace uses a
    global clock that accumulates |t| over stages, so it is monotone even when
    some stage times are negative.  ``cfg.max_step`` applies on the unit lift
    clock, so in flow time it scales by the total ``sum(|t|)``.
    """
    x0 = [float(v) for v in x0]
    action.require_inside(x0)
    stages = [(i, X, float(t)) for i, (X, t) in enumerate(word) if float(t) != 0.0]
    if not stages:
        return WordOutcome(COMPLETE, tuple(x0), [(0.0, tuple(x0))])

    G = action.group
    segs = [ExpSeg(tuple(float(v) if t > 0.0 else -float(v) for v in X), abs(t))
            for (_, X, t) in stages]
    total = sum(abs(t) for (_, _, t) in stages)
    res = lift_path(action, GPath(G, G.identity(), segs), x0, cfg)
    trace = [(total * s, m) for (s, _, _, m) in res.rows]
    if res.complete:
        return WordOutcome(COMPLETE, res.endpoint_m, trace, steps=res.steps)

    k = res.failed_segment
    stage, _, t = stages[k]
    escape_time = stage_time = None
    if res.status == ESCAPED:
        escape_time = total * res.escape_time
        elapsed = sum(abs(t_j) for (_, _, t_j) in stages[:k])
        stage_time = math.copysign(escape_time - elapsed, t)
    return WordOutcome(
        res.status,
        res.endpoint_m,
        trace,
        escape_time=escape_time,
        failed_stage=stage,
        stage_escape_time=stage_time,
        low_confidence=res.low_confidence,
        steps=res.steps,
    )


def equivariance_check(
    action,
    path: GPath,
    x0,
    g,
    cfg: Optional[IntegratorConfig] = None,
) -> float:
    """Residual of the leaf translation law under left-translating the path.

    Lifts ``path`` and its left-translate by ``g`` from the same ``x0``; the
    manifold endpoints must agree and the group endpoints must differ by left
    multiplication by ``g``.  Raises :class:`LiftEscapedError` on escape.
    """
    base = lift_path(action, path, x0, cfg)
    if not base.complete:
        raise LiftEscapedError(base)
    translated = GPath(path.group, action.group.mul(g, path.start), path.segments)
    shifted = lift_path(action, translated, x0, cfg)
    if not shifted.complete:
        raise LiftEscapedError(shifted)
    dm = 0.0
    for a, b in zip(base.endpoint_m, shifted.endpoint_m):
        dm = max(dm, abs(a - b))
    dg = action.group.distance(
        action.group.mul(g, base.endpoint_g), shifted.endpoint_g
    )
    return dm + dg
