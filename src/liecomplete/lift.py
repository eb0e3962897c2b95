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

A flow of one fundamental field, and a word of such flows, is the lift of the
path :meth:`GPath.word` builds from the identity, one ``ExpSeg`` per stage.
Its unit clock is flow time over the sum of the stage times' magnitudes.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import mul, truediv
from typing import Optional, Sequence

from ._record import NOT_A_NUMBER, TEXT, InputError, Record, floats, number
from .algebra import AlgebraError
from .flow import COMPLETE, ESCAPED, IntegratorConfig, integrate_autonomous

TRACE_TARGET = 64  # minimum samples in a padded trace

__all__ = [
    "LinearSeg",
    "ExpSeg",
    "GPath",
    "LiftResult",
    "PathError",
    "lift_path",
]


class PathError(InputError):
    pass


class LinearSeg:
    """An abelian segment: total displacement ``delta`` over a clock weight ``duration``."""

    __slots__ = ("delta", "duration")

    def __init__(self, delta: tuple, duration: float = 1.0):
        self.delta, self.duration = delta, duration


class ExpSeg:
    """A segment ``exp(tau * X)`` for ``tau`` in ``[0, duration]``: ``X`` is a rate."""

    __slots__ = ("X", "duration")

    def __init__(self, X: tuple, duration: float = 1.0):
        self.X, self.duration = X, duration


class _Chords:
    """Segments of one type and one duration, given by the d columns of their vectors.

    ``_Chords(columns)`` stands for ``LinearSeg(delta, 1.0)`` (a circle's
    chords), ``_Chords(columns, dt, ExpSeg)`` for ``ExpSeg(X, dt)`` (a
    loop's sub-chords).  A :class:`GPath` whose model takes them, in d
    coordinates, takes the columns as they are, so no object is built per
    segment; an item, or a slice's items, are built when read.
    """

    __slots__ = ("columns", "duration", "kind")

    def __init__(self, columns, duration: float = 1.0, kind: type = LinearSeg):
        self.columns, self.duration, self.kind = columns, duration, kind

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(len(self)))))
        return self.kind(tuple(col[k] for col in self.columns), self.duration)


class GPath:
    """Piecewise path in the group model, clock normalized to [0, 1].

    The segment vectors (each segment's total), their velocities (vector
    over share of the clock) and, in the abelian model, the points at the
    segment starts are held as one list of floats per coordinate; the
    matrix model holds its points as one ``(m + 1, n, n)`` array.
    ``segments`` is the tuple of segment objects or, for the chords of
    :func:`~liecomplete.scenarios.circle_loop_path` and the sub-chords of
    :func:`~liecomplete.completion.loop_to_group`, a sequence that builds
    each ``LinearSeg`` or ``ExpSeg`` when it is read.
    """

    def __init__(self, group, start, segments: Sequence):
        self.group = group
        try:
            self.start = group.element(start)
        except AlgebraError as exc:
            raise PathError(f"bad start point: {exc}") from exc
        if (isinstance(segments, _Chords) and len(segments.columns) == group.dim
                and (segments.kind is ExpSeg or group.kind == "abelian")):
            dur, cols = segments.duration, segments.columns
            if segments.kind is ExpSeg:   # a rate: the segment's total is duration * X
                cols = [[dur * x for x in col] for col in cols]
            durations = [dur] * len(segments)
        else:
            segments = tuple(segments)
            cols, durations = _segment_columns(group, segments)
        self.segments = segments
        total = sum(durations)
        if not math.isfinite(total):
            raise PathError("segment durations must have a finite sum")
        self.widths = [dur / total for dur in durations]
        # a velocity is a segment vector over its share of the clock: it is
        # finite only if the vector is and the share has not underflowed to 0
        vels = [list(map(truediv, col, self.widths)) for col in cols] if all(self.widths) else None
        if vels is None or not all(map(math.isfinite, chain.from_iterable(vels))):
            raise PathError("segment vectors and velocities (vector over share of the clock) must be finite")
        self._vectors, self._velocities = cols, vels
        bounds = [0.0, *accumulate(self.widths)]
        if durations:
            bounds[-1] = 1.0
        self._bounds = bounds

        # closed-form prefix displacements: group point at each segment start
        try:
            self._prefix = group.products(self.start, cols)
        except AlgebraError as exc:
            raise PathError(f"bad path: {exc}") from exc

    @classmethod
    def word(cls, group, word) -> "GPath":
        """The path of a word ``[(X, t), ...]`` of flows, from the identity.

        Each stage becomes ``ExpSeg(sign(t) * X, |t|)``.  Stages with
        ``t == 0`` are checked and dropped, so segment ``k`` is the ``k``-th
        non-zero stage, and a word of zero stages gives a path with no
        segments.  A lift's unit clock ``s`` is flow time ``s * sum(|t|)``.
        """
        message = "a word's stages must be (vector, time) pairs of numbers"
        segs = []
        for stage in word:
            try:
                X, t = stage
            except (TypeError, ValueError):   # not a pair
                raise PathError(message) from None
            X, t = floats(X, PathError, message, group.dim), number(t, PathError, message)
            if t != 0.0:
                segs.append(ExpSeg(tuple(X) if t > 0.0 else tuple(-v for v in X), abs(t)))
        return cls(group, group.identity(), segs)

    @property
    def n_segments(self) -> int:
        return len(self.widths)

    def _start(self, k):
        """The group point where segment ``k`` starts; ``k = -1`` gives the endpoint."""
        if self.group.kind == "abelian":
            return tuple(col[k] for col in self._prefix)
        return self._prefix[k]

    def endpoint(self):
        return self._start(-1)


def _segment_columns(group, segs: tuple) -> tuple:
    """The d columns of the total vectors of segment objects, and their durations, checked."""
    abelian = group.kind == "abelian"
    raw, durations = [], []
    for s in segs:
        if isinstance(s, ExpSeg):
            raw.append(s.X)       # a rate: the segment's total is duration * X
        elif not isinstance(s, LinearSeg):
            raise PathError(f"unknown segment type {type(s).__name__}")
        elif abelian:
            raw.append(s.delta)   # total displacement
        else:
            raise PathError("LinearSeg requires the abelian group model")
        durations.append(s.duration)
    durations = floats(durations, PathError, "segment durations must be numbers")
    for i, dur in enumerate(durations):
        if not 0.0 < dur < math.inf:
            raise PathError(f"segment {i}: duration must be positive and finite")
    scale = [dur if isinstance(s, ExpSeg) else 1.0 for s, dur in zip(segs, durations)]
    d = group.dim
    try:   # column by column: the rows must all have length d, and none be a str or bytes
        cols = [list(map(mul, scale, map(float, col))) for col in zip(*raw, strict=True)] if raw else [[]] * d
    except NOT_A_NUMBER:
        cols = None
    if cols is None or len(cols) != d or any(map(isinstance, raw, repeat(TEXT))):
        raise PathError(f"segment vector must have length {d}")
    return cols, durations


class LiftResult(Record):
    """A lift of a group path: its verdict, endpoints, trace columns and winding.

    The trace is held as columns, each a tuple: row ``i`` is at clock
    ``t[i]`` in [0, 1], ``frac[i]`` of the way through segment ``k[i]``,
    with the n coordinates ``y[i * n:(i + 1) * n]`` of the flat state
    column ``y``; row 0 is the path start.  ``winding`` is the signed turns
    of (x0, x1) if the action winds.
    """
    __slots__ = ("status", "endpoint_g", "endpoint_m", "path", "t", "k", "frac", "y", "escape_time",
                 "failed_segment", "winding", "low_confidence", "steps", "__dict__")
    _defaults = {"escape_time": None, "failed_segment": None, "winding": None,
                 "low_confidence": False, "steps": 0}

    @cached_property
    def rows(self) -> tuple:
        """The trace as rows ``(t, k, frac, m)``, ``m`` a tuple of n floats; built on first read."""
        return tuple(zip(self.t, self.k, self.frac, zip(*[iter(self.y)] * len(self.endpoint_m))))

    @cached_property
    def trace(self) -> tuple:
        """Columns ``(t, g, m)``: the clock, the group points as the model's stack, the n state columns.

        The group points are the d columns of floats in the abelian model
        and one ``(rows, n, n)`` array in the matrix model, computed on
        first read.
        """
        n = len(self.endpoint_m)
        return self.t, _path_points(self.path, self.k[1:], self.frac[1:]), [self.y[i::n] for i in range(n)]


_QUARTER_TURN = math.pi / 2


def _turn(interp, s0, th0, s1, th1, total: float, depth: int = 0) -> float:
    """``total`` plus the turn of (x0, x1) from the angle ``th0`` to the angle ``th1``.

    The angles are at the fractions ``s0`` and ``s1`` of a step with
    interpolant ``interp``.  The jump is folded into (-pi, pi]; one of a
    quarter turn or more is split at the middle of ``[s0, s1]`` on the
    interpolant until jumps are small, each piece added to ``total`` in
    order, so the fold is exact for trajectories the integrator resolves.
    """
    d = math.remainder(th1 - th0, math.tau)
    if d == -math.pi:
        d = math.pi
    if abs(d) >= _QUARTER_TURN and depth < 24:
        sm = 0.5 * (s0 + s1)
        ym = interp(sm)
        thm = math.atan2(ym[1], ym[0])
        total = _turn(interp, s0, th0, sm, thm, total, depth + 1)
        return _turn(interp, sm, thm, s1, th1, total, depth + 1)
    return total + d


def _check_group_compat(g1, g2):
    if g1.kind != g2.kind or g1.dim != g2.dim:
        raise PathError("the group models do not match")
    if g1.kind == "matrix":
        import numpy as np
        if g1.n != g2.n or not np.array_equal(g1.basis, g2.basis):   # exactly, as == on groups
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
    An action with ``winding`` set gets the signed turns of (x0, x1), summed
    over the accepted steps: a jump under a quarter turn is folded inline,
    and :func:`_turn` splits a larger one.  Each accepted step appends its
    clock ``t``, segment ``k`` and fraction ``frac`` of the way through it
    to their columns, and its state to the flat column ``y``; the group
    points are computed when ``trace`` is first read.
    """
    cfg = cfg or IntegratorConfig()
    _check_group_compat(action.group, path.group)
    x0 = action.require_inside(x0)

    winds = action.winding
    if winds:
        angle, turned = math.atan2(x0[1], x0[0]), 0.0

    ts, ks, fracs, ys = [0.0], [0], [0.0], list(x0)
    small_path = path.n_segments <= 8
    kept_steps: list = []  # (t_abs0, t_abs1, interp, seg_index) for padding
    margin, contraction = action._margin, action._contraction
    y = x0
    steps_total = 0

    def on_step(t0, t1, y1, interp):
        # k, t_base and w are those of the segment being integrated
        nonlocal angle, turned
        if winds:
            # _turn's fold, inline where it would not split the jump
            th1 = math.atan2(y1[1], y1[0])
            d = math.remainder(th1 - angle, math.tau)
            if abs(d) < _QUARTER_TURN:
                turned, angle = turned + d, th1
            else:
                turned, angle = _turn(interp, 0.0, angle, 1.0, th1, turned), th1
        ts.append(t_base + t1)
        ks.append(k)
        fracs.append(t1 / w)
        ys.extend(y1)
        # a trace that ends with more than TRACE_TARGET rows is not padded
        if small_path and len(ts) <= TRACE_TARGET:
            kept_steps.append((t_base + t0, t_base + t1, interp, k))

    for k, (w, t_base, vel) in enumerate(zip(path.widths, path._bounds, zip(*path._velocities))):
        rhs = contraction(vel)
        status, t_end, y_end, steps, low = integrate_autonomous(rhs, y, w, cfg, margin, on_step)
        steps_total += steps
        if status != COMPLETE:
            break
        y = y_end
    else:
        status = COMPLETE

    columns = map(tuple, _padded_rows(ts, ks, fracs, ys, kept_steps, path))
    winding = turned / math.tau if winds else None
    if status == COMPLETE:
        return LiftResult(COMPLETE, path.endpoint(), tuple(y), path, *columns,
                          winding=winding, steps=steps_total)
    G = path.group
    return LiftResult(
        status,
        G.mul(path._start(k), G.exp_segment([col[k] for col in path._vectors], min(t_end / w, 1.0))),
        y_end,
        path,
        *columns,
        escape_time=t_base + t_end if status == ESCAPED else None,
        failed_segment=k,
        winding=winding,
        low_confidence=low,
        steps=steps_total,
    )


def _padded_rows(ts, ks, fracs, ys, kept_steps, path: GPath) -> tuple:
    """The columns ``(t, k, frac, y)``, densified to at least TRACE_TARGET rows for few-segment paths."""
    if len(ts) >= TRACE_TARGET + 1 or not kept_steps:
        return ts, ks, fracs, ys
    n = len(ys) // len(ts)
    per = int(math.ceil(TRACE_TARGET / len(kept_steps)))
    out_t, out_k, out_frac, out_y = [ts[0]], [ks[0]], [fracs[0]], ys[:n]
    for (t0, t1, interp, k) in kept_steps:
        w = path.widths[k]
        tb = path._bounds[k]
        for i in range(1, per + 1):
            s = i / per
            t = t0 + s * (t1 - t0)
            out_t.append(t)
            out_k.append(k)
            out_frac.append((t - tb) / w)
            out_y.extend(interp(s))
    # the last row is the lift's own
    out_t[-1], out_k[-1], out_frac[-1] = ts[-1], ks[-1], fracs[-1]
    out_y[-n:] = ys[-n:]
    return out_t, out_k, out_frac, out_y


def _path_points(path: GPath, ks, fracs):
    """``path.start``, then the points ``fracs[i]`` of the way through segments ``ks[i]``.

    They come as the model's stack: in the abelian model the d columns of
    floats ``p[k] + frac * v[k]``, from the segment's start ``p`` and its
    vector ``v``; in the matrix model an ``(m + 1, n, n)`` array, with one
    stacked exponential.  Row 0 is ``path.start`` itself: an empty path has
    no segment 0, and ``p + 0.0 * v`` can turn a ``-0.0`` into ``0.0``.
    """
    G = path.group
    if G.kind == "abelian":
        return [[s] + [p[k] + f * v[k] for k, f in zip(ks, fracs)]
                for s, p, v in zip(path.start, path._prefix, path._vectors)]
    import numpy as np
    ks = np.asarray(ks, dtype=np.intp)
    points = G.mul(path._prefix[ks], G.exp_segment(np.array(path._vectors).T[ks], fracs))
    return np.concatenate([path.start[None], points])
