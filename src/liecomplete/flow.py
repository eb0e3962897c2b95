"""The adaptive integrator behind every lift, with escape detection.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL and a PI-free
step controller.  Escape from the open domain is detected by scanning the
domain margin along each accepted step (endpoints plus interpolated interior
samples, with a golden-section dip refinement); a step whose margin dips well
below both of its ends is retried so that it ends at the dip, so fast transits
past a thin excluded set are not stepped over.  The escape time is refined by
bisection on the margin against the escape threshold.

Flows of single fields and words of flows are lifts of one-parameter group
paths; they live beside :func:`liecomplete.lift.lift_path`.

References for the tableau: Dormand & Prince (1980), the standard RK5(4)7M
coefficients as used by ode45/RKDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "IntegratorConfig",
    "COMPLETE",
    "ESCAPED",
    "STEP_LIMIT",
    "integrate_autonomous",
]

COMPLETE = "complete"
ESCAPED = "escaped"
STEP_LIMIT = "step_limit"

# Dormand-Prince 5(4) coefficients
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error coefficients: b - b_hat (4th order weights include the FSAL stage)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)

_MARGIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


@dataclass
class IntegratorConfig:
    """Step-control and escape-detection knobs shared by flows and lifts."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: Optional[float] = None
    max_steps: int = 1_000_000
    escape_margin: float = 1e-9          # margin level treated as having left
    escape_time_width: float = 1e-6      # bisection bracket width on the time axis
    step_collapse: float = 1e-14         # controller collapse => low-confidence escape
    trace_target: int = 64               # minimum samples in a padded trace

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "escape_margin", "escape_time_width", "step_collapse"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not resolvable in double precision")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ValueError("max_step must be positive")
        if self.max_steps <= 0 or self.trace_target < 2:
            raise ValueError("max_steps must be positive and trace_target >= 2")


def _hermite(y0, f0, y1, f1, h):
    """Cubic Hermite interpolant of one step; s runs over [0, 1]."""

    def interp(s: float):
        s2 = s * s
        a = s2 * (2.0 * s - 3.0) + 1.0        # h00
        b = h * (s2 * (s - 2.0) + s)          # h10
        c = s2 * (3.0 - 2.0 * s)              # h01
        d = h * s2 * (s - 1.0)                # h11
        return [
            a * y0[i] + b * f0[i] + c * y1[i] + d * f1[i]
            for i in range(len(y0))
        ]

    return interp


def _golden_min(fn, lo: float, hi: float, iters: int = 40):
    """Golden-section minimum of fn over [lo, hi]; returns (s, fn(s))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


# margin scan sample points inside an accepted step
_SCAN = (0.25, 0.5, 0.75, 1.0)


def _scan_margins(margin, interp, m0: float, m_end: float, eps: float, h: float, width: float):
    """Check the margin along one accepted step.

    Returns ``None`` when the step can be committed; ``("dip", s)`` when the
    margin dips at step fraction ``s`` well below both ends of the step, which
    is then retried so that it ends at the dip; or
    ``("escape", s_lo, s_mid, low_confidence)`` when the margin crosses
    ``eps``, with ``s_lo`` the last fraction found inside and ``s_mid`` the
    middle of the final bisection bracket.
    """
    ms = [m0]
    for s in _SCAN[:-1]:
        ms.append(margin(interp(s)))
    ms.append(m_end)
    ss = (0.0,) + _SCAN

    cross = None  # (s with margin > eps, s with margin <= eps)
    for i in range(1, 5):
        if ms[i] <= eps:
            cross = (ss[i - 1], ss[i])
            break
    if cross is None:
        mmin = min(ms)
        mmax = max(ms)
        if mmin < 0.5 * mmax or mmin < 100.0 * eps:
            im = ms.index(mmin)
            lo = ss[max(0, im - 1)]
            hi = ss[min(4, im + 1)]
            s_star, m_star = _golden_min(lambda s: margin(interp(s)), lo, hi)
            if m_star <= eps:
                cross = (lo, s_star)
            elif m_star < 0.5 * min(m0, m_end):
                return ("dip", s_star)
    if cross is None:
        return None

    s_lo, s_hi = cross  # margin(s_lo) > eps >= margin(s_hi)
    low_conf = False
    for _ in range(80):
        width_ok = (s_hi - s_lo) * abs(h) < width
        if width_ok and margin(interp(s_lo)) < 10.0 * eps:
            break
        if (s_hi - s_lo) < 1e-15:
            low_conf = True
            break
        mid = 0.5 * (s_lo + s_hi)
        if margin(interp(mid)) > eps:
            s_lo = mid
        else:
            s_hi = mid
    else:
        low_conf = True
    return ("escape", s_lo, 0.5 * (s_lo + s_hi), low_conf)


def integrate_autonomous(
    rhs: Callable,
    y0: Sequence[float],
    duration: float,
    cfg: IntegratorConfig,
    margin: Callable,
    on_step: Optional[Callable] = None,
):
    """Integrate y' = rhs(y) over [0, duration] inside the open domain.

    ``margin`` maps a state (list) to the signed distance proxy; crossing
    ``cfg.escape_margin`` ends the run as escaped.  ``on_step`` is called as
    ``on_step(t0, y0, t1, y1, interp)`` after each accepted (possibly
    escape-truncated) step, with ``interp`` covering the reported sub-step.

    Returns ``(status, t_end, y_end, steps, low_confidence)``.
    """
    n = len(y0)
    y = [float(v) for v in y0]
    t = 0.0
    eps = cfg.escape_margin

    def safe_margin(p) -> float:
        try:
            return margin(p)
        except _MARGIN_ERRORS:
            return -math.inf

    if safe_margin(y) <= eps:
        return ESCAPED, 0.0, tuple(y), 0, False

    try:
        f0 = rhs(y)
        if not all(math.isfinite(v) for v in f0):
            raise ValueError
    except _MARGIN_ERRORS:
        # in-domain but the field is not evaluable: nothing can move
        return ESCAPED, 0.0, tuple(y), 0, True

    # First trial step: where a solution whose higher derivatives are the size
    # of f0 would meet the tolerance (the h1 of Hairer, Norsett & Wanner,
    # Solving ODEs I, II.4).  A whole-span first step can pass the error test
    # while its true error is far larger, because the embedded estimate is
    # only asymptotic in h.
    d1 = math.sqrt(sum(
        (f0[i] / (cfg.abs_tol + cfg.rel_tol * abs(y[i]))) ** 2 for i in range(n)
    ) / n)
    h = min(duration, (0.01 / d1) ** 0.2) if 0.0 < d1 < math.inf else duration
    if cfg.max_step is not None:
        h = min(h, cfg.max_step)

    steps = 0
    m_curr = None  # margin at current point, lazily reused
    while True:
        if steps >= cfg.max_steps:
            return STEP_LIMIT, t, tuple(y), steps, False
        remaining = duration - t
        if remaining <= 0.0:
            return COMPLETE, t, tuple(y), steps, False
        last = h >= remaining
        if last:
            h = remaining

        failed = False
        try:
            k2 = rhs([y[i] + h * _A21 * f0[i] for i in range(n)])
            k3 = rhs([y[i] + h * (_A31 * f0[i] + _A32 * k2[i]) for i in range(n)])
            k4 = rhs([y[i] + h * (_A41 * f0[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n)])
            k5 = rhs([
                y[i] + h * (_A51 * f0[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                for i in range(n)
            ])
            k6 = rhs([
                y[i]
                + h * (_A61 * f0[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
                for i in range(n)
            ])
            y1 = [
                y[i] + h * (_B1 * f0[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
                for i in range(n)
            ]
            k7 = rhs(y1)
            err = 0.0
            for i in range(n):
                e = h * (
                    _E1 * f0[i] + _E3 * k3[i] + _E4 * k4[i]
                    + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i]
                )
                sc = cfg.abs_tol + cfg.rel_tol * max(abs(y[i]), abs(y1[i]))
                e = e / sc
                err += e * e
            err = math.sqrt(err / n)
            if not math.isfinite(err) or any(not math.isfinite(v) for v in y1):
                failed = True
        except _MARGIN_ERRORS:
            failed = True

        steps += 1
        if failed:
            h *= 0.5
            if h < cfg.step_collapse:
                return ESCAPED, t, tuple(y), steps, True
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < cfg.step_collapse:
                return ESCAPED, t, tuple(y), steps, True
            continue

        # accepted: check the margin along the step before committing
        interp = _hermite(y, f0, y1, k7, h)
        m_end = safe_margin(y1)
        if m_curr is None:
            m_curr = safe_margin(y)
        found = _scan_margins(safe_margin, interp, m_curr, m_end, eps, h, cfg.escape_time_width)
        if found is not None:
            if found[0] == "dip":
                # a thin pass the step may have jumped: end the retried step at it
                h *= found[1]
                if h < cfg.step_collapse:
                    return ESCAPED, t, tuple(y), steps, True
                continue
            _, s_cut, s_mid, low = found
            y_cut = interp(s_cut)
            if on_step is not None and s_cut > 0.0:
                on_step(t, y, t + s_cut * h, y_cut, lambda s, _i=interp, _c=s_cut: _i(s * _c))
            return ESCAPED, t + s_mid * h, tuple(y_cut), steps, low

        if on_step is not None:
            on_step(t, y, t + h, y1, interp)
        t += h
        y = y1
        f0 = k7
        m_curr = m_end
        if last:
            return COMPLETE, t, tuple(y), steps, False
        growth = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= growth
        if cfg.max_step is not None:
            h = min(h, cfg.max_step)
