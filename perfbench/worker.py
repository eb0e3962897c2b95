"""One benchmark process: set up a workload, then time or trace its ops.

Run by ``run.py`` in a fresh interpreter so that set-up time includes the
package import.  Modes:

* ``setup`` — import, build and input generation only; reports ``setup_s``.
* ``run``   — set up, then a closed loop with one client for ``--seconds``
  of nominal time: each op is timed alone and checked against its oracle
  afterwards.
* ``trace`` — set up, then alternate an untraced and a traced pass over the
  same fixed list of ops until ``--seconds`` have passed; per-layer numbers
  come from the traced passes, tracing overhead from the pair.

Set-up and op times are reported at nominal host speed and as raw wall
time (see ``hostspeed.py``).  Ending the loop on nominal rather than wall
time keeps the op count, and so the tail percentile, the same on a host
that is running slow.

The last line of standard output is one JSON object.
"""

import time

from hostspeed import HostSpeed

SPEED = HostSpeed()   # reference samples before the timed set-up
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

import workloads as W  # noqa: E402
from tracer import Tracer, install  # noqa: E402

# ops per traced pass: about one to two seconds of work each
TRACE_OPS = {"winding": 6, "graze": 60, "affine_loop": 6, "cli": 5}
IMPORT_PROBES = 3
WALL_CAP = 1.2   # a run on a slow host ends early rather than overrun its budget

# layers whose span counts and self times are reported
LAYERS = (
    "lift.lift_path", "lift.on_step", "lift.gpath", "scenarios.circle_loop_path",
    "manifold.rhs", "manifold.margin", "flow.integrate", "algebra.exp_segment",
    "completion.loop_to_group", "expr.compile_scalars", "scenarios.build",
    "manifold.check_homomorphism", "cli.main",
)


def _set_up(args):
    sys.path.insert(0, args.src)
    pkg = W.Pkg()
    where = os.path.dirname(pkg.lift.__file__)
    if os.path.commonpath([where, args.src]) != args.src:
        raise SystemExit(f"liecomplete imported from {where}, not from {args.src}")
    scenario = pkg.scenarios.build(W.SCENARIOS[args.workload])
    inputs = W.make_inputs(args.workload, args.seed, args.workdir)
    return pkg, scenario.action, inputs, time.perf_counter() - T_START


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Executes and checks ops; keeps the failure list and the worst error."""

    def __init__(self, workload: str, pkg, action, src: str, workdir: str, inprocess: bool):
        self.workload = workload
        self.pkg = pkg
        self.action = action
        self.src = src
        self.workdir = workdir
        self.inprocess = inprocess
        self.attempted = 0
        self.failures: list = []
        self.err_max = 0.0
        self.bytes_written = 0
        self.child_rss_mb = 0.0

    def timed(self, index: int, op: dict) -> float:
        """Run one op, check it, return its wall time."""
        self.attempted += 1
        dt = answer = None
        t0 = time.perf_counter()
        try:
            if self.workload != "cli":
                answer = W.RUNNERS[self.workload](self.pkg, self.action, op)
            elif self.inprocess:
                rc, stdout = W.cli_inprocess(self.pkg, op["argv"])
            else:
                rc, stdout, rss = W.cli_subprocess(self.src, self.workdir, op["argv"])
                self.child_rss_mb = max(self.child_rss_mb, rss)
            dt = time.perf_counter() - t0
            if self.workload == "cli":
                answer, written = W.cli_outputs(op, rc, stdout)
                self.bytes_written += written
            err, problems = W.CHECKERS[self.workload](op, answer)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            if dt is None:
                dt = time.perf_counter() - t0
            err, problems = math.inf, [f"{type(exc).__name__}: {exc}"]
        if math.isfinite(err):
            self.err_max = max(self.err_max, err)
        if problems:
            failure = {"op": index, "input": _brief(op), "problems": problems}
            if self.workload != "cli" and answer is not None:
                failure["answer"] = answer
            self.failures.append(failure)
        return dt


def _brief(op: dict) -> dict:
    return {k: v for k, v in op.items() if k != "points"}


def _peak_rss_mb(runner: Runner) -> float:
    """This process's peak RSS, or for the CLI the largest CLI child's."""
    if runner.workload == "cli":
        return runner.child_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # kilobytes on Linux


def run_loop(args, runner: Runner, inputs: list, speed: HostSpeed) -> dict:
    """Closed loop until ``--seconds`` of nominal time, or WALL_CAP times that of wall time."""
    if args.workload == "cli":
        speed = HostSpeed.for_cli()
    factor = speed.factor
    wall, nominal = [], []
    t_begin = t_prev = time.perf_counter()
    elapsed = 0.0
    before = factor()
    i = 0
    while elapsed < args.seconds and t_prev - t_begin < WALL_CAP * args.seconds:
        wall.append(runner.timed(i, inputs[i % len(inputs)]))
        after = factor()
        scale = 0.5 * (before + after)
        nominal.append(wall[-1] * scale)
        t_now = time.perf_counter()
        elapsed += (t_now - t_prev) * scale
        t_prev, before = t_now, after
        i += 1
    return {"op_times": nominal, "op_wall_times": wall, "loop_wall_s": t_prev - t_begin,
            "op_ref_s": median(speed.samples), "peak_rss_mb": _peak_rss_mb(runner)}


def _probe_import(src: str) -> dict:
    """Fresh-interpreter start-up: bare, and importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=src)
    bare, cli = [], []
    for _ in range(IMPORT_PROBES):
        for code, out in (("pass", bare), ("import liecomplete.cli", cli)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            out.append(time.perf_counter() - t0)
    return {"cli.interpreter_s": median(bare), "cli.import_s": median(cli) - median(bare)}


def _pass_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass."""
    m: dict = {}
    layers = {name: tracer.layer(name) for name in LAYERS}
    for name, got in layers.items():
        calls, self_s, _ = got if got is not None else (0, 0.0, 0.0)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    counts = tracer.counts
    wraps = counts.get("flow.arg_wraps", 0) * tracer.wrap_cost
    m["flow.integrate.self_s"] -= wraps
    integ = layers["flow.integrate"]
    incl = integ[2] - wraps if integ else 0.0
    accepted = m["lift.on_step.calls"]
    attempted = counts.get("flow.steps_attempted", 0)
    segments = counts.get("lift.segments", 0)
    m["lift.segments"] = segments
    m["flow.steps_attempted"] = attempted
    m["flow.steps_accepted"] = accepted
    m["flow.accept_ratio"] = accepted / attempted if attempted else 0.0
    m["flow.rhs_per_step"] = m["manifold.rhs.calls"] / accepted if accepted else 0.0
    m["flow.margin_per_step"] = m["manifold.margin.calls"] / accepted if accepted else 0.0
    m["flow.us_per_accepted_step"] = 1e6 * incl / accepted if accepted else 0.0
    m["lift.us_per_segment"] = 1e6 * m["lift.lift_path.self_s"] / segments if segments else 0.0
    for name in ("manifold.rhs", "manifold.margin"):
        calls = m[f"{name}.calls"]
        m[f"{name}.us_per_call"] = 1e6 * m[f"{name}.self_s"] / calls if calls else 0.0
    return m


def trace_loop(args, runner: Runner, pkg, inputs: list) -> dict:
    t_begin = time.perf_counter()
    tracer = Tracer()
    tracer.calibrate()
    probes = _probe_import(args.src)
    ops = inputs[:TRACE_OPS[args.workload]]
    untraced, traced, passes = [], [], []
    while not passes or time.perf_counter() - t_begin < args.seconds:
        untraced.append(sum(runner.timed(i, op) for i, op in enumerate(ops)))
        tracer.reset()
        install(tracer, pkg)
        written = runner.bytes_written
        try:
            t0 = time.perf_counter()
            if args.workload != "cli":   # the CLI builds its scenario inside each op
                pkg.scenarios.build(W.SCENARIOS[args.workload])
            for i, op in enumerate(ops):
                runner.timed(i, op)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.restore()
        passes.append(_pass_metrics(tracer))
        passes[-1]["cli.bytes_written"] = runner.bytes_written - written

    first = passes[0]
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    repeat = all({k: p[k] for k in counts} == counts for p in passes)
    metrics = dict(counts)
    for k, v in first.items():
        if not isinstance(v, int):
            metrics[k] = median(p[k] for p in passes)
    metrics["trace.ops"] = len(ops)
    metrics["trace.passes"] = len(passes)
    metrics["trace.span_cost_us"] = 1e6 * tracer.span_cost
    metrics["trace.overhead_frac"] = 1.0 - median(untraced) / median(traced)
    metrics.update(probes)
    return {"metrics": tracer.present(metrics), "counts_repeat": repeat,
            "missing_hooks": tracer.missing,
            "calibration_us": {"inner": 1e6 * tracer.inner, "outer": 1e6 * tracer.outer,
                               "wrap": 1e6 * tracer.wrap_cost}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(W.CHECKERS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--src", required=True, help="directory holding the liecomplete package")
    p.add_argument("--workdir", required=True, help="scratch directory for CLI files")
    args = p.parse_args(argv)
    args.src = os.path.abspath(args.src)

    pkg, action, inputs, setup_s = _set_up(args)
    speed = SPEED
    speed.refresh()
    result = {"setup_s": setup_s * speed.overall_factor(), "setup_wall_s": setup_s,
              "versions": _versions()}
    if args.mode != "setup":
        runner = Runner(args.workload, pkg, action, args.src, args.workdir,
                        inprocess=args.mode == "trace")
        if args.mode == "run":
            result.update(run_loop(args, runner, inputs, speed))
        else:
            result.update(trace_loop(args, runner, pkg, inputs))
        result.update(attempted=runner.attempted, failures=runner.failures,
                      oracle_err_max=runner.err_max)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
