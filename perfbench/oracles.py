"""Closed-form oracles for the benchmark workloads.

The bench computes every expected answer itself from the generated input;
nothing here imports the package under test.  Each checker takes the input
record and the program's answer and returns ``(err, problems)``: ``err`` is
the worst numeric error of the op (relative or absolute as each check says)
and ``problems`` lists every failed check.  An op fails iff ``problems`` is
non-empty.

Tolerances are fixed from the default ``IntegratorConfig`` (rel 1e-9,
abs 1e-12, escape margin 1e-9, escape-time bracket 1e-6) and from the order
of each method, never from observed errors of a particular seed.
"""

from __future__ import annotations

import math

ALPHA = 1.0                 # helicoid shear rate used by every helicoid workload
ESCAPE_MARGIN = 1e-9        # IntegratorConfig.escape_margin default
ESCAPE_TIME_WIDTH = 1e-6    # IntegratorConfig.escape_time_width default

Z_REL_TOL = 1e-7            # z after a chord-polygon lift (thousands of steps at rel 1e-9)
GRAZE_Z_REL_TOL = 1e-6      # z after a near-axis pass (steps shrink near the singular set)
PLANE_REL_TOL = 1e-9        # planar projection moves by exact translations
WINDING_TOL = 1e-9          # signed turns
ESCAPE_TIME_TOL = ESCAPE_TIME_WIDTH   # bracket width on the unit path clock
T_FRAME_TOL = 1e-9          # translations commute: Gauss averaging is exact
D_FRAME_TOL = 1e-7          # relative; 4th-order Gauss error of integrating 1/x
# Gauss averaging is 2nd order when [T, D] != 0: on 256-point walks the {T, D}
# invariant and round-trip errors reach about 1e-4 (7.5e-5 in 483 trials), so
# these flag an order-of-magnitude loss, not the known 2nd-order error
TD_INVARIANT_TOL = 1e-3     # relative
ROUND_TRIP_TOL = 1e-3       # relative re-lift residual of the reconstructed path
CHECK_RESIDUAL_TOL = 1e-10  # abelian algebra: the bracket residual is rounding only


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _measure(problems: list, name: str, err: float, tol: float) -> float:
    if not (err <= tol):  # also catches NaN
        problems.append(f"{name} error {err:.3e} > {tol:.1e}")
    return err if math.isfinite(err) else math.inf


# ---------------------------------------------------------------------------
# helicoid


def winding_expected(inp: dict) -> dict:
    """Endpoint of a circle lift: z0*exp(-2*pi*alpha*turns), back on the circle."""
    turns = inp["turns"] if inp["ccw"] else -inp["turns"]
    th = inp["phase"] + 2.0 * math.pi * turns
    r = inp["radius"]
    return {
        "turns": turns,
        "z": inp["z0"] * math.exp(-2.0 * math.pi * ALPHA * turns),
        "plane": (r * math.cos(th), r * math.sin(th)),
    }


def check_winding(inp: dict, out: dict):
    """``out``: status, endpoint_m (x, y, z), winding."""
    exp = winding_expected(inp)
    problems: list = []
    if out["status"] != "complete":
        return math.inf, [f"status {out['status']!r}, expected 'complete'"]
    x, y, z = out["endpoint_m"]
    err = _measure(problems, "z", _rel(z, exp["z"]), Z_REL_TOL)
    px, py = exp["plane"]
    err = max(err, _measure(
        problems, "plane", math.hypot(x - px, y - py) / inp["radius"], PLANE_REL_TOL))
    w = out["winding"]
    werr = abs(w - exp["turns"]) if _finite(w) else math.inf
    err = max(err, _measure(problems, "winding", werr, WINDING_TOL))
    return err, problems


def graze_escape_time(p0, delta) -> float:
    """First root t of |p0 + t*delta|^2 = eps (the margin is the squared radius)."""
    a = delta[0] ** 2 + delta[1] ** 2
    b = 2.0 * (p0[0] * delta[0] + p0[1] * delta[1])
    c = p0[0] ** 2 + p0[1] ** 2 - ESCAPE_MARGIN
    disc = b * b - 4.0 * a * c
    # c > 0 and b < 0 here, so the smaller root is the stable 2c / (-b + sqrt)
    return 2.0 * c / (-b + math.sqrt(disc))


def graze_expected(inp: dict) -> dict:
    """Verdict by distance; escape time, or z0*exp(-alpha*dtheta) when complete."""
    p0, delta = inp["p0"], inp["delta"]
    escaped = inp["d"] ** 2 <= 0.5 * ESCAPE_MARGIN
    if escaped:
        return {"status": "escaped", "escape_time": graze_escape_time(p0, delta)}
    p1 = (p0[0] + delta[0], p0[1] + delta[1])
    dtheta = math.atan2(p0[0] * p1[1] - p0[1] * p1[0], p0[0] * p1[0] + p0[1] * p1[1])
    return {
        "status": "complete",
        "z": inp["z0"] * math.exp(-ALPHA * dtheta),
        "turns": dtheta / (2.0 * math.pi),
    }


def check_graze(inp: dict, out: dict):
    """``out``: status, escape_time, endpoint_m, winding."""
    exp = graze_expected(inp)
    if out["status"] != exp["status"]:
        return math.inf, [f"verdict {out['status']!r}, expected {exp['status']!r}"]
    problems: list = []
    if exp["status"] == "escaped":
        t = out["escape_time"]
        terr = abs(t - exp["escape_time"]) if _finite(t) else math.inf
        return _measure(problems, "escape time", terr, ESCAPE_TIME_TOL), problems
    err = _measure(problems, "z", _rel(out["endpoint_m"][2], exp["z"]), GRAZE_Z_REL_TOL)
    w = out["winding"]
    werr = abs(w - exp["turns"]) if _finite(w) else math.inf
    err = max(err, _measure(problems, "winding", werr, WINDING_TOL))
    return err, problems


# ---------------------------------------------------------------------------
# affine line


def check_affine(inp: dict, out: dict):
    """``out``: element (2x2 nested list), round_trip_residual.

    T frame: [[1, xe - xs], [0, 1]].  D frame: [[xs / xe, 0], [0, 1]].
    {T, D} frame: any element with a*xe - b = xs and bottom row [0, 1].
    """
    xs, xe = inp["points"][0], inp["points"][-1]
    (a, b), (c, d) = out["element"]
    problems: list = []
    frame = inp["frame"]
    if frame == "T":
        ref = ((1.0, xe - xs), (0.0, 1.0))
    elif frame == "D":
        ref = ((xs / xe, 0.0), (0.0, 1.0))
    else:
        ref = None
    if ref is not None:
        scale = max(abs(v) for row in ref for v in row)
        diff = max(abs(u - v) for ru, rv in zip(((a, b), (c, d)), ref) for u, v in zip(ru, rv))
        err = _measure(problems, f"{frame} element", diff / scale,
                       T_FRAME_TOL if frame == "T" else D_FRAME_TOL)
    else:
        err = _measure(problems, "bottom row", max(abs(c), abs(d - 1.0)), T_FRAME_TOL)
        err = max(err, _measure(
            problems, "a*xe - b = xs", abs(a * xe - b - xs) / abs(xs), TD_INVARIANT_TOL))
    rt = out["round_trip_residual"]
    rterr = rt / abs(xe) if _finite(rt) else math.inf
    err = max(err, _measure(problems, "round trip", rterr, ROUND_TRIP_TOL))
    return err, problems


# ---------------------------------------------------------------------------
# CLI invocations; ``out`` carries the exit code and the parsed outputs


def check_cli(inp: dict, out: dict):
    kind = inp["kind"]
    rc = out["rc"]
    want_rc = 2 if kind == "lift_radial" else 0
    if rc != want_rc:
        return math.inf, [f"{kind}: exit code {rc}, expected {want_rc}"]
    problems: list = []
    if kind == "check":
        res = out.get("residual")
        if res is None:
            return math.inf, ["check: no residual line"]
        return _measure(problems, "bracket residual", res, CHECK_RESIDUAL_TOL), problems
    if kind == "lift_circle":
        rows = out["trace_rows"]
        want_rows = inp["chords"] + 1
        if rows != want_rows:
            problems.append(f"lift: {rows} trace rows, expected {want_rows}")
        err, more = check_winding(inp, out["summary"])
        return err, problems + more
    if kind == "lift_radial":
        s = out["summary"]
        if s["status"] != "escaped":
            return math.inf, [f"radial lift status {s['status']!r}, expected 'escaped'"]
        t = s["escape_time"]
        t_ref = 1.0 - math.sqrt(ESCAPE_MARGIN) / inp["radius"]
        terr = abs(t - t_ref) if _finite(t) else math.inf
        return _measure(problems, "escape time", terr, ESCAPE_TIME_TOL), problems
    if kind == "holonomy":
        return check_affine(inp, out["payload"])
    if kind == "classify":
        got = out["payload"]["groups"]
        if got != inp["groups"]:
            return math.inf, [f"classify groups {got}, expected {inp['groups']}"]
        return 0.0, problems
    raise ValueError(f"unknown cli op kind {kind!r}")
