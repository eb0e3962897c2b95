"""liecomplete benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads (see BENCHMARK.json for why each exists): ``winding``, ``graze``,
``affine_loop``, ``cli``.  Every op is checked against a closed-form oracle
computed here (``oracles.py``).

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
fresh processes), median and tail op time, ops per second and peak memory.
Times are at nominal host speed (``hostspeed.py``); raw wall times are
printed beside them.
``--trace 1`` reports per-layer numbers from spans recorded around calls
into the package's public functions (``tracer.py``).

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A full record
with provenance and every failing op goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("winding", "graze", "affine_loop", "cli")
SETUP_PROBES = 3            # set-up-only processes per run, besides the timed one
OUT_DIR = ".perfbench_out"
RUN_LIMIT_S = 170.0         # every run, set-up included, ends within this

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed and recorded with the end-to-end metrics: correctness, and the raw
# wall times behind the normalized ones
E2E_EXTRA = {
    "failed_frac": "frac",
    "oracle_err_max": "err",
    "setup_wall_s": "s",
    "op_p50_wall_s": "s",
    "op_tail_wall_s": "s",
    "ops_per_wall_s": "1/s",
    "host_ref_s": "s",
}
PER_LAYER = {
    "lift.lift_path.calls": "count",
    "lift.lift_path.self_s": "s",
    "lift.segments": "count",
    "lift.us_per_segment": "us",
    "lift.on_step.calls": "count",
    "lift.on_step.self_s": "s",
    "lift.gpath.calls": "count",
    "lift.gpath.self_s": "s",
    "scenarios.circle_loop_path.calls": "count",
    "manifold.rhs.calls": "count",
    "manifold.rhs.self_s": "s",
    "manifold.rhs.us_per_call": "us",
    "manifold.margin.calls": "count",
    "manifold.margin.self_s": "s",
    "manifold.margin.us_per_call": "us",
    "flow.integrate.calls": "count",
    "flow.integrate.self_s": "s",
    "flow.steps_attempted": "count",
    "flow.steps_accepted": "count",
    "flow.accept_ratio": "ratio",
    "flow.rhs_per_step": "calls/step",
    "flow.margin_per_step": "calls/step",
    "flow.us_per_accepted_step": "us",
    "algebra.exp_segment.calls": "count",
    "completion.loop_to_group.calls": "count",
    "expr.compile_scalars.calls": "count",
    "expr.compile_scalars.self_s": "s",
    "scenarios.build.calls": "count",
    "scenarios.build.self_s": "s",
    "manifold.check_homomorphism.calls": "count",
    "cli.main.calls": "count",
    "cli.bytes_written": "bytes",
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "trace.ops": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
    "oracle_err_max": "err",
}
# self times of layers that run on some workloads only: a constant zero
# elsewhere, so they go to the report and the readable lines, not the result
LAYER_ONLY_WHERE_RUN = {
    "scenarios.circle_loop_path.self_s": "s",
    "algebra.exp_segment.self_s": "s",
    "completion.loop_to_group.self_s": "s",
    "manifold.check_homomorphism.self_s": "s",
    "cli.main.self_s": "s",
}


def tail_index(n: int) -> int:
    """Ascending index of the highest percentile with ten samples beyond it.

    Runs too short to have one fall back to the median.
    """
    return max((n - 1) // 2, n - 11)


def op_stats(times: list) -> dict:
    ts = sorted(times)
    n = len(ts)
    k = tail_index(n)
    return {
        "op_p50_s": median(ts),
        "op_tail_s": ts[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "ops_per_s": n / sum(ts),
        "samples": n,
    }


def _worker(args, mode: str, workdir: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--src", args.src, "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(args, versions: dict) -> dict:
    sha = None
    if os.path.isdir(".git"):   # a plain checkout has no history; src_sha256 still names the code
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(args.src, "liecomplete")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args, workdir: str) -> dict:
    deadline = RUN_LIMIT_S - args.seconds
    probes = [_worker(args, "setup", workdir, deadline / SETUP_PROBES / 2)
              for _ in range(SETUP_PROBES)]
    res = _worker(args, "run", workdir, RUN_LIMIT_S - sum(p["setup_wall_s"] for p in probes))
    probes.append(res)
    stats = op_stats(res["op_times"])
    wall = op_stats(res["op_wall_times"])
    metrics = {"setup_s": median(p["setup_s"] for p in probes), **stats,
               "peak_rss_mb": res["peak_rss_mb"],
               "setup_wall_s": median(p["setup_wall_s"] for p in probes),
               "op_p50_wall_s": wall["op_p50_s"],
               "op_tail_wall_s": wall["op_tail_s"],
               "ops_per_wall_s": wall["ops_per_s"],
               "host_ref_s": res["op_ref_s"]}
    n = stats["samples"]
    return {"res": res, "metrics": metrics,
            "notes": {"setup_s": f"median of {len(probes)} processes, nominal host speed",
                      "op_p50_s": f"n={n} ops, nominal host speed",
                      "op_tail_s": f"p{stats['tail_percentile']:.1f} of {n} ops",
                      "ops_per_s": f"{n} ops, default IntegratorConfig",
                      "host_ref_s": "median reference time the ops were scaled by"}}


def per_layer(args, workdir: str) -> dict:
    res = _worker(args, "trace", workdir, RUN_LIMIT_S)
    m = res["metrics"]
    notes = {"trace.ops": f"{m['trace.passes']} traced passes, times are medians"}
    if not res["counts_repeat"]:
        notes["trace.ops"] += "; COUNTS DIFFER BETWEEN PASSES"
    return {"res": res, "metrics": m, "notes": notes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(args.src, "liecomplete", "__init__.py")):
        print("error: src/liecomplete not found; run from the repository root",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.abspath(OUT_DIR))
    try:
        got = (per_layer if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res, metrics = got["res"], got["metrics"]
    attempted, failures = res["attempted"], res["failures"]
    metrics["failed_frac"] = len(failures) / attempted
    metrics["oracle_err_max"] = res["oracle_err_max"]
    counts_ok = res.get("counts_repeat", True)
    declared = PER_LAYER if args.trace else END_TO_END
    shown = dict(declared, **(LAYER_ONLY_WHERE_RUN if args.trace else E2E_EXTRA))

    prov = provenance(args, res["versions"])
    for name, unit in shown.items():
        if name in metrics:
            note = got["notes"].get(name, "")
            print(f"{name:36s} {metrics[name]!r:>24} {unit:10s} {note}")
        else:
            print(f"{name:36s} {'absent':>24} {unit:10s} hook point not found")
    for f in failures:
        answer = f"  answer={f['answer']}" if "answer" in f else ""
        print(f"FAILED op {f['op']}: {'; '.join(f['problems'])}  input={f['input']}{answer}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    record = {"provenance": prov, "metrics": metrics, "notes": got["notes"],
              "failures": failures, **{k: v for k, v in res.items()
                                      if k not in ("metrics", "failures", "op_times")}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, allow_nan=False, default=str)

    result = {
        "correct": not failures and counts_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in declared.items() if k in metrics},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
