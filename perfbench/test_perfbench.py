"""Self-test of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q

Covers: every workload at a tiny run length, in both modes, emits exactly
the metrics BENCHMARK.json declares with their units; each oracle rejects a
perturbed answer (fed to the checker, not to the program); two traced runs
at one seed give identical counts; a missing hook point drops its metrics
instead of crashing; a directory without the package makes the bench fail.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

import oracles as O
import workloads as W
from run import END_TO_END, PER_LAYER, tail_index
from tracer import Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_SECONDS = "0.05"


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


def _bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", TINY_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


_results = {}


def _result(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _results:
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


def test_tables_match_benchmark_json():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(W.CHECKERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(W.CHECKERS))
def test_tiny_run_is_correct_and_emits_every_metric(workload, trace):
    res = _result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    declared = END_TO_END if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(W.CHECKERS))
def test_traced_counts_repeat_at_one_seed(workload):
    first = _result(workload, 1)["metrics"]
    proc = _bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counts = [k for k, v in first.items() if v["unit"] in ("count", "bytes")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_bench_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("graze", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail_index(100) == 89       # ten samples above index 89
    assert tail_index(11) == 5         # too short: falls back to the median
    assert tail_index(1) == 0


# ---------------------------------------------------------------------------
# oracles reject perturbed answers


def _fails(check, inp, out) -> bool:
    return bool(check(inp, out)[1])


def _winding_answer(inp):
    exp = O.winding_expected(inp)
    return {"status": "complete", "endpoint_m": (*exp["plane"], exp["z"]),
            "winding": exp["turns"]}


def test_oracles_do_not_import_the_package():
    code = "import oracles, sys; print(sorted(m for m in sys.modules if 'liecomplete' in m))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_winding_oracle_rejects_perturbed_answers():
    for inp in W.make_inputs("winding", 3, "")[:6]:
        good = _winding_answer(inp)
        assert not _fails(O.check_winding, inp, good)
        x, y, z = good["endpoint_m"]
        for bad in (
            dict(good, status="escaped"),
            dict(good, endpoint_m=(x, y, z * (1 + 1e-6))),
            dict(good, endpoint_m=(x + 1e-8, y, z)),
            dict(good, winding=good["winding"] + 1.0),
            dict(good, winding=None),
        ):
            assert _fails(O.check_winding, inp, bad)


def test_graze_oracle_rejects_perturbed_answers():
    inputs = W.make_inputs("graze", 3, "")
    escaped = [i for i in inputs if O.graze_expected(i)["status"] == "escaped"]
    complete = [i for i in inputs if O.graze_expected(i)["status"] == "complete"]
    assert escaped and complete
    for inp in escaped[:5]:
        t = O.graze_expected(inp)["escape_time"]
        good = {"status": "escaped", "escape_time": t, "endpoint_m": (0, 0, 1), "winding": 0.0}
        assert not _fails(O.check_graze, inp, good)
        assert _fails(O.check_graze, inp, dict(good, escape_time=t + 2e-6))
        assert _fails(O.check_graze, inp, dict(good, status="complete"))
    for inp in complete[:5]:
        exp = O.graze_expected(inp)
        end = (inp["p0"][0] + inp["delta"][0], inp["p0"][1] + inp["delta"][1], exp["z"])
        good = {"status": "complete", "escape_time": None, "endpoint_m": end,
                "winding": exp["turns"]}
        assert not _fails(O.check_graze, inp, good)
        assert _fails(O.check_graze, inp, dict(good, status="escaped", escape_time=0.5))
        assert _fails(O.check_graze, inp, dict(good, endpoint_m=end[:2] + (end[2] * 1.00001,)))
        assert _fails(O.check_graze, inp, dict(good, winding=exp["turns"] + 1e-6))


def _affine_answer(inp):
    xs, xe = inp["points"][0], inp["points"][-1]
    if inp["frame"] == "D":
        element = [[xs / xe, 0.0], [0.0, 1.0]]
    else:   # exact for T; one member of the {T, D} solution set a*xe - b = xs
        element = [[1.0, xe - xs], [0.0, 1.0]]
    return {"element": element, "round_trip_residual": 0.0}


def test_affine_oracle_rejects_perturbed_answers():
    inputs = W.make_inputs("affine_loop", 3, "")[:6]
    assert {i["frame"] for i in inputs} == set(W.AFFINE_FRAMES)
    for inp in inputs:
        good = _affine_answer(inp)
        assert not _fails(O.check_affine, inp, good)
        (a, b), (c, d) = good["element"]
        xe = inp["points"][-1]
        for bad in (
            dict(good, element=[[a, b + 1e-2], [c, d]]),
            dict(good, element=[[a * 1.01, b], [c, d]]),
            dict(good, element=[[a, b], [1e-6, d]]),
            dict(good, round_trip_residual=1e-2 * xe),
            dict(good, round_trip_residual=math.inf),
        ):
            assert _fails(O.check_affine, inp, bad)


def test_cli_oracle_rejects_perturbed_answers(tmp_path):
    ops = {op["kind"]: op for op in W.make_inputs("cli", 3, str(tmp_path))[:5]}
    circle, radial = ops["lift_circle"], ops["lift_radial"]
    t_ref = 1.0 - math.sqrt(O.ESCAPE_MARGIN) / radial["radius"]
    groups = ops["classify"]["groups"]
    swapped = [g[:] for g in groups]
    swapped[0][0], swapped[1][0] = swapped[1][0], swapped[0][0]
    cases = {
        "check": ({"rc": 0, "residual": 0.0},
                  [{"rc": 0, "residual": 1e-8}, {"rc": 1, "residual": 0.0}]),
        "lift_circle": ({"rc": 0, "trace_rows": 4097, "summary": _winding_answer(circle)},
                        [{"rc": 0, "trace_rows": 4096, "summary": _winding_answer(circle)},
                         {"rc": 2, "trace_rows": 4097, "summary": _winding_answer(circle)}]),
        "lift_radial": ({"rc": 2, "summary": {"status": "escaped", "escape_time": t_ref}},
                        [{"rc": 2, "summary": {"status": "escaped", "escape_time": t_ref - 2e-6}},
                         {"rc": 0, "summary": {"status": "escaped", "escape_time": t_ref}}]),
        "holonomy": ({"rc": 0, "payload": _affine_answer(ops["holonomy"])},
                     [{"rc": 0, "payload": dict(_affine_answer(ops["holonomy"]),
                                                round_trip_residual=math.inf)}]),
        "classify": ({"rc": 0, "payload": {"groups": groups}},
                     [{"rc": 0, "payload": {"groups": swapped}},
                      {"rc": 0, "payload": {"groups": groups[::-1]}}]),
    }
    for kind, (good, bads) in cases.items():
        assert not _fails(O.check_cli, ops[kind], good), kind
        for bad in bads:
            assert _fails(O.check_cli, ops[kind], bad), (kind, bad)


# ---------------------------------------------------------------------------
# tracer


def test_missing_hook_points_drop_their_metrics():
    """A package without integrate_autonomous or check_homomorphism still traces."""

    def fn(*_args, **_kwargs):
        return None

    class GPath:
        def __init__(self):
            pass

    mod = types.SimpleNamespace
    pkg = mod(
        lift=mod(lift_path=fn, GPath=GPath),
        completion=mod(lift_path=fn, loop_to_group=fn),
        scenarios=mod(lift_path=fn, build=fn, circle_loop_path=fn),
        cli=mod(lift_path=fn, build=fn, circle_loop_path=fn, loop_to_group=fn, main=fn),
        manifold=mod(compile_scalars=fn),
        algebra=mod(MatrixGroup=type("MatrixGroup", (), {"exp_segment": fn})),
    )
    tracer = install(Tracer(), pkg)
    try:
        assert tracer.missing == ["integrate_autonomous", "check_homomorphism"]
        pkg.cli.main()
        assert tracer.layer("cli.main")[0] == 1
    finally:
        tracer.restore()
    assert pkg.cli.main is fn
    kept = tracer.present({"flow.steps_accepted": 1, "manifold.rhs.calls": 2,
                           "manifold.check_homomorphism.calls": 0, "cli.main.calls": 1})
    assert kept == {"cli.main.calls": 1}


def test_span_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(2000))

    wrapped_child = tracer.span("child", child)

    def parent():
        return [wrapped_child() for _ in range(5)]

    tracer.span("parent", parent)()
    calls, self_s, incl_s = tracer.layer("parent")
    child_calls, child_self, child_incl = tracer.layer("child")
    assert calls == 1 and child_calls == 5
    assert self_s < incl_s
    assert child_self == pytest.approx(child_incl)
