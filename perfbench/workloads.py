"""Seeded inputs and the op each workload times.

An op is one user-level call: one lift (``winding``, ``graze``), one loop
reconstruction (``affine_loop``) or one CLI invocation (``cli``).  Inputs
come from ``random.Random(seed)`` only, so a seed fixes them on any machine.
Each workload cycles through balanced blocks (every op kind or size class
once per block, in seeded order) so that a run's mix does not depend on
where the time limit falls.

The package is reached through its modules' attributes at call time
(``pkg.lift.lift_path`` and so on), which is what lets the traced run
rebind those names from outside.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from oracles import ALPHA, ESCAPE_MARGIN, check_affine, check_cli, check_graze, check_winding

CHORDS_PER_TURN = 4096      # circle_loop_path and CLI default
TURNS = (0.25, 0.5, 1.0)
GRAZE_D_RANGE = (1e-6, 1e-1)
AFFINE_POINTS = (64, 256)
AFFINE_LOG_STEP = 0.05      # sd of log(x) increments of the random walk
AFFINE_FRAMES = {"T": [[1.0, 0.0]], "D": [[0.0, 1.0]], "TD": [[1.0, 0.0], [0.0, 1.0]]}
CLI_KINDS = ("check", "lift_circle", "lift_radial", "holonomy", "classify")
CLI_TIMEOUT_S = 60.0

# inputs generated in set-up; a run that uses more cycles through them again
POOL_BLOCKS = {"winding": 100, "graze": 1000, "affine_loop": 40, "cli": 12}


class Pkg:
    """The package's modules, looked up once; attributes are read per call."""

    def __init__(self):
        import importlib

        for mod in ("algebra", "manifold", "scenarios", "lift", "completion", "cli"):
            setattr(self, mod, importlib.import_module(f"liecomplete.{mod}"))


# ---------------------------------------------------------------------------
# input generation


def _circle_op(rng: random.Random, turns: float, ccw: bool) -> dict:
    return {
        "radius": rng.uniform(0.5, 2.0),
        "phase": rng.uniform(-math.pi, math.pi),
        "z0": rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
        "turns": turns,
        "ccw": ccw,
    }


def _winding_block(rng: random.Random) -> list:
    block = [(t, ccw) for t in TURNS for ccw in (True, False)]
    rng.shuffle(block)
    return [_circle_op(rng, t, ccw) for t, ccw in block]


def _graze_op(rng: random.Random) -> dict:
    lo, hi = (math.log(v) for v in GRAZE_D_RANGE)
    while True:
        d = math.exp(rng.uniform(lo, hi))
        if not 0.5 * ESCAPE_MARGIN < d * d < 2.0 * ESCAPE_MARGIN:
            break
    psi = rng.uniform(-math.pi, math.pi)
    u = (math.cos(psi), math.sin(psi))
    side = rng.choice((-1.0, 1.0))
    closest = (-side * d * u[1], side * d * u[0])
    before, after = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    return {
        "d": d,
        "p0": (closest[0] - before * u[0], closest[1] - before * u[1]),
        "delta": ((before + after) * u[0], (before + after) * u[1]),
        "z0": rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
    }


def _walk(rng: random.Random, n: int) -> list:
    x = rng.uniform(0.5, 2.0)
    pts = [x]
    for _ in range(n - 1):
        x *= math.exp(rng.gauss(0.0, AFFINE_LOG_STEP))
        pts.append(x)
    return pts


def _affine_block(rng: random.Random) -> list:
    lo, hi = AFFINE_POINTS
    mid = (lo + hi) // 2
    block = [(f, s) for f in AFFINE_FRAMES for s in ((lo, mid), (mid, hi + 1))]
    rng.shuffle(block)
    return [{"frame": f, "points": _walk(rng, rng.randrange(*s))} for f, s in block]


def _classify_points(rng: random.Random):
    """Helicoid graph points on a few known leaves, with the expected grouping.

    A leaf is fixed by base = g - (x, y), the sign of z and the phase
    (log|z| + alpha*theta) / (2*pi*alpha) mod 1; members vary theta, the
    planar radius and the sheet.  The flat leaf z = 0 is fixed by base alone.
    """
    leaves = []
    for k in range(4):
        base = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        kind = "zero" if k == 0 else rng.choice(("plus", "minus"))
        leaves.append((base, kind, rng.uniform(0.05, 0.95)))
    members = [i for i in range(len(leaves)) for _ in range(3)]
    rng.shuffle(members)
    points, groups, first = [], [], {}
    for idx, leaf in enumerate(members):
        base, kind, phase = leaves[leaf]
        th = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
        rho = rng.uniform(0.3, 2.0)
        x, y = rho * math.cos(th), rho * math.sin(th)
        if kind == "zero":
            z = 0.0
        else:
            sheet = rng.choice((-1, 0, 1))
            z = math.exp(2.0 * math.pi * ALPHA * (phase + sheet) - ALPHA * th)
            z = z if kind == "plus" else -z
        points.append({"g": [base[0] + x, base[1] + y], "x": [x, y, z]})
        if leaf not in first:
            first[leaf] = len(groups)
            groups.append([])
        groups[first[leaf]].append(idx)
    return points, groups


def _cli_cycle(rng: random.Random, workdir: str, i: int) -> list:
    def path(name):
        return os.path.join(workdir, f"{i}-{name}")

    ops = []
    for kind in CLI_KINDS:
        op = {"kind": kind}
        if kind == "check":
            op["argv"] = ["check", "--scenario", "example6", "--seed", str(rng.randrange(1000))]
        elif kind == "lift_circle":
            op.update(_circle_op(rng, 1.0, rng.random() < 0.5), chords=CHORDS_PER_TURN)
            r, ph = op["radius"], op["phase"]
            x0 = f"{r * math.cos(ph)!r},{r * math.sin(ph)!r},{op['z0']!r}"
            op["argv"] = ["lift", "--scenario", "example6", f"--x0={x0}",
                          "--circle-turns", "1", "--out", path("circle")]
            if not op["ccw"]:
                op["argv"].append("--clockwise")
        elif kind == "lift_radial":
            r, ph = rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi)
            x, y = r * math.cos(ph), r * math.sin(ph)
            spec = {"start": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                    "segments": [{"type": "linear", "delta": [-x, -y]}]}
            _write(path("radial.json"), spec)
            op["radius"] = r
            op["argv"] = ["lift", "--scenario", "example6",
                          f"--x0={x!r},{y!r},{rng.uniform(0.5, 2.0)!r}",
                          "--path", path("radial.json"), "--out", path("radial")]
        elif kind == "holonomy":
            pts = _walk(rng, rng.randrange(AFFINE_POINTS[0], AFFINE_POINTS[0] * 2))
            _write(path("loop.json"), {"points": [[x] for x in pts]})
            op.update(frame="T", points=pts)
            op["argv"] = ["holonomy", "--scenario", "affine", "--open", "--frame", "1,0",
                          "--loop", path("loop.json"), f"--x0={pts[0]!r}"]
        else:
            points, groups = _classify_points(rng)
            _write(path("points.json"), {"points": points})
            op["groups"] = groups
            op["argv"] = ["classify", "--scenario", "example6", "--points", path("points.json")]
        ops.append(op)
    return ops


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def make_inputs(workload: str, seed: int, workdir: str) -> list:
    """The op inputs of one run."""
    rng = random.Random(f"{workload}:{seed}")
    n = POOL_BLOCKS[workload]
    if workload == "winding":
        return [op for _ in range(n) for op in _winding_block(rng)]
    if workload == "graze":
        return [_graze_op(rng) for _ in range(n * 6)]
    if workload == "affine_loop":
        return [op for _ in range(n) for op in _affine_block(rng)]
    if workload == "cli":
        return [op for i in range(n) for op in _cli_cycle(rng, workdir, i)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# ops: each returns the answer record its oracle checks


def _lift_record(res) -> dict:
    return {
        "status": res.status,
        "endpoint_m": tuple(res.endpoint_m),
        "escape_time": res.escape_time,
        "winding": res.winding,
        "steps": res.steps,
    }


def run_winding(pkg: Pkg, action, op: dict) -> dict:
    r, ph = op["radius"], op["phase"]
    x0 = (r * math.cos(ph), r * math.sin(ph), op["z0"])
    path = pkg.scenarios.circle_loop_path(
        (0.0, 0.0), x0[:2], turns=op["turns"], clockwise=not op["ccw"])
    return _lift_record(pkg.lift.lift_path(action, path, x0))


def run_graze(pkg: Pkg, action, op: dict) -> dict:
    path = pkg.lift.GPath(action.group, (0.0, 0.0), [pkg.lift.LinearSeg(op["delta"], 1.0)])
    x0 = (op["p0"][0], op["p0"][1], op["z0"])
    return _lift_record(pkg.lift.lift_path(action, path, x0))


def run_affine(pkg: Pkg, action, op: dict) -> dict:
    pts = op["points"]
    hol = pkg.completion.loop_to_group(
        action, AFFINE_FRAMES[op["frame"]], [[x] for x in pts], [pts[0]], closed=False)
    return {"element": hol.element.tolist(), "round_trip_residual": hol.round_trip_residual}


def cli_subprocess(src: str, workdir: str, argv: list):
    """One CLI invocation in a fresh interpreter: (exit code, stdout, its peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryFile(dir=workdir) as out:
        proc = subprocess.Popen([sys.executable, "-m", "liecomplete.cli", *argv], cwd=workdir,
                                env=env, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would also
            # count the bench's reference processes
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0   # kilobytes on Linux


def cli_inprocess(pkg: Pkg, argv: list):
    """One CLI invocation through ``liecomplete.cli.main`` in this process."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pkg.cli.main(list(argv))
    return rc, out.getvalue()


def _out_prefix(argv: list) -> str:
    return argv[argv.index("--out") + 1]


def cli_outputs(op: dict, rc: int, stdout: str):
    """Parse what one CLI op produced: (answer record, bytes written)."""
    out = {"rc": rc}
    written = len(stdout.encode())
    kind = op["kind"]
    if kind == "check":
        for line in stdout.splitlines():
            if line.startswith("bracket homomorphism residual:"):
                out["residual"] = float(line.split(":", 1)[1])
    elif kind in ("lift_circle", "lift_radial") and rc in (0, 2):
        prefix = _out_prefix(op["argv"])
        for suffix in (".trace.csv", ".summary.json"):
            written += os.path.getsize(prefix + suffix)
        with open(prefix + ".summary.json", encoding="utf-8") as fh:
            out["summary"] = json.load(fh)
        with open(prefix + ".trace.csv", encoding="utf-8") as fh:
            out["trace_rows"] = sum(1 for _ in fh) - 1
    elif rc == 0:
        out["payload"] = json.loads(stdout)
    return out, written


CHECKERS = {
    "winding": check_winding,
    "graze": check_graze,
    "affine_loop": check_affine,
    "cli": check_cli,
}

SCENARIOS = {"winding": "example6_helicoid", "graze": "example6_helicoid",
             "affine_loop": "affine_line", "cli": "example6_helicoid"}

RUNNERS = {"winding": run_winding, "graze": run_graze, "affine_loop": run_affine}
