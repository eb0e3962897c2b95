"""End-to-end command-line behavior: exit codes, file formats, determinism."""

import functools
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import liecomplete
from liecomplete import InputError
from liecomplete.algebra import AlgebraError, SingularElementError
from liecomplete.cli import main
from liecomplete.completion import (
    FrameConditionError, LoopGeometryError, LoopOutsideOrbitError, MalformedWitnessError,
)
from liecomplete.expr import MAX_DEPTH, ExprDomainError, ExprNameError, ExprSyntaxError
from liecomplete.flow import IntegratorConfig
from liecomplete.lift import PathError
from liecomplete.manifold import (
    MAX_SAMPLES, ActionError, DomainError, OutsideDomainError, SamplingError,
)
from liecomplete.scenarios import MAX_CIRCLE_CHORDS, MAX_TRANSLATION_DIM, ScenarioError

U = 0.7
E_MINUS_2PI = 1.8674427317079893e-3

FLIPPED_ACTION = {
    "name": "flipped",
    "group": {"type": "abelian", "dim": 2},
    "manifold": {"dim": 3, "coords": ["x", "y", "z"], "exclusions": ["x^2 + y^2"]},
    "fields": [
        ["1", "0", "y*z/(x^2 + y^2)"],
        ["0", "1", "x*z/(x^2 + y^2)"],
    ],
}


AFFINE_ACTION = {
    "group": {"type": "matrix", "dim": 2, "basis": [[[0, 1], [0, 0]], [[-1, 0], [0, 0]]]},
    "manifold": {"dim": 1, "coords": ["x"]},
    "fields": [["1"], ["x"]],
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _config_error(argv, capsys):
    """Whether ``argv`` exits 3 with one ``error:`` line on stderr."""
    code = main(argv)
    err = capsys.readouterr().err
    return code == 3 and err.count("error:") == 1


def test_cli_import_leaves_scipy_linalg_out():
    # importing scipy.linalg would be most of the start-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecomplete.__file__)))
    code = "import sys, liecomplete.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_matrix_model_runs_leave_scipy_out(tmp_path):
    # the matrix exponential is the package's own: neither a holonomy nor a
    # matrix-path lift loads any scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecomplete.__file__)))
    loop = _write(tmp_path, "loop.json", {"points": [[1.0], [2.0], [1.5], [1.0]]})
    path = _write(tmp_path, "path.json", {"start": [[1, 0], [0, 1]],
                  "segments": [{"type": "exp", "X": [0.5, -0.25]}]})
    runs = [["holonomy", "--scenario", "affine", "--loop", loop, "--x0", "1"],
            ["lift", "--scenario", "affine", "--x0", "1", "--path", path,
             "--out", str(tmp_path / "o")]]
    code = ("import sys\nfrom liecomplete.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0] []"


def test_abelian_runs_leave_numpy_out(tmp_path):
    # importing numpy would be most of the start-up time, and dataclasses with
    # the inspect it imports a large share of the rest: the package, and check,
    # lift and classify on abelian actions, load none of them (numpy itself
    # imports inspect, so holonomy is not among the runs); each run loads only
    # the package modules it runs, so the integrator and the lift wait for a
    # lift, and the holonomy code is never loaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecomplete.__file__)))
    action = _write(tmp_path, "flipped.json", FLIPPED_ACTION)
    path = _write(tmp_path, "path.json", {"start": [0.5, 0.0], "segments": [
        {"type": "linear", "delta": [-0.5, 0.25]}, {"type": "exp", "X": [0.1, 0.2], "duration": 2}]})
    points = _write(tmp_path, "pts.json", {"points": [{"g": [0, 0], "x": [1, 0, 1]}]})
    out = str(tmp_path / "o")
    runs = [["check", "--scenario", "example6"],
            ["check", "--scenario-file", action],
            ["classify", "--scenario", "example6", "--points", points],
            ["lift", "--scenario", "example6", "--x0", "1,0,1", "--circle-turns", "1", "--out", out],
            ["lift", "--scenario", "example6", "--x0", "1,0,1", "--path", path, "--out", out]]
    watched = {"numpy", "dataclasses", "inspect",
               "liecomplete.flow", "liecomplete.lift", "liecomplete.completion", "liecomplete.interval"}
    code = ("import sys\n"
            "def loaded():\n"
            f"    return sorted({{m.split('.')[0] for m in sys.modules}}.union(sys.modules) & {watched!r})\n"
            "import liecomplete\n"
            "seen = [loaded()]\n"
            "from liecomplete.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    seen.append((main(argv), loaded()))\n"
            "print(seen)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    lifted = ['liecomplete.flow', 'liecomplete.lift']
    assert out.stdout.strip().splitlines()[-1] == repr(
        [[], (0, []), (1, []), (0, []), (0, lifted), (0, lifted)])


# ---------------------------------------------------------------------------
# check


def test_check_passes_builtin(capsys):
    assert main(["check", "--scenario", "example6"]) == 0
    out = capsys.readouterr().out
    assert "check: PASS" in out
    assert "bracket homomorphism residual" in out


def test_check_fails_on_sign_flip(tmp_path, capsys):
    f = _write(tmp_path, "flipped.json", FLIPPED_ACTION)
    assert main(["check", "--scenario-file", f]) == 1
    assert "check: FAIL" in capsys.readouterr().out


def test_check_output_is_deterministic(capsys):
    main(["check", "--scenario", "example4", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check", "--scenario", "example4", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_unknown_keys_are_config_errors(tmp_path, capsys):
    bad = dict(FLIPPED_ACTION)
    bad["extra"] = 1
    f = _write(tmp_path, "bad.json", bad)
    assert main(["check", "--scenario-file", f]) == 3
    assert "unknown key" in capsys.readouterr().err
    # values of the wrong type: basis entries, params, fields and exclusions
    assert main(["check", "--scenario-file", _write(tmp_path, "aff.json", AFFINE_ACTION)]) == 0
    capsys.readouterr()
    bases = [[[[0, "a"], [0, 0]], [[-1, 0], [0, 0]]],
             [[[0, 1], [0]], [[-1, 0], [0, 0]]],
             [[[0, 1], [0, 0]], [[-1, 0, 0], [0, 0, 0], [0, 0, 0]]],
             [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],    # commutators leave the span
             "ab"]
    for basis in bases:
        spec = dict(AFFINE_ACTION, group={"type": "matrix", "dim": 2, "basis": basis})
        f = _write(tmp_path, "basis.json", spec)
        assert _config_error(["check", "--scenario-file", f], capsys), basis
    helicoid = dict(FLIPPED_ACTION, fields=[["1", "0", "a*y*z/(x^2 + y^2)"],
                                            ["0", "1", "-a*x*z/(x^2 + y^2)"]])
    f = _write(tmp_path, "a.json", dict(helicoid, params={"a": 1.5}))
    assert main(["check", "--scenario-file", f]) == 0
    capsys.readouterr()
    for value in ["abc", [1], "1.5", True, None, math.nan]:
        f = _write(tmp_path, "a.json", dict(helicoid, params={"a": value}))
        assert _config_error(["check", "--scenario-file", f], capsys), value
    manifold = FLIPPED_ACTION["manifold"]
    for spec in [dict(FLIPPED_ACTION, fields=[["1", "0", 5], ["0", "1", "0"]]),
                 dict(FLIPPED_ACTION, manifold=dict(manifold, exclusions=[5])),
                 dict(FLIPPED_ACTION, manifold=dict(manifold, exclusions="x"))]:
        f = _write(tmp_path, "bad.json", spec)
        assert _config_error(["check", "--scenario-file", f], capsys), spec


def test_boolean_dims_are_config_errors(tmp_path, capsys):
    # JSON true passes isinstance(..., int) but is no dimension
    line = {"group": {"type": "abelian", "dim": 1},
            "manifold": {"dim": 1, "coords": ["x"]}, "fields": [["1"]]}
    assert main(["check", "--scenario-file", _write(tmp_path, "line.json", line)]) == 0
    capsys.readouterr()
    for spec in [dict(line, group={"type": "abelian", "dim": True}),
                 dict(line, manifold={"dim": True, "coords": ["x"]})]:
        f = _write(tmp_path, "bool.json", spec)
        assert _config_error(["check", "--scenario-file", f], capsys), spec


def test_non_string_names_are_config_errors(tmp_path, capsys):
    # a coordinate name ends up in the CSV header and the name in the summary
    line = {"group": {"type": "abelian", "dim": 1},
            "manifold": {"dim": 1, "coords": ["x"]}, "fields": [["1"]]}
    path = _write(tmp_path, "path.json", {"start": [0.0], "segments": [{"type": "linear", "delta": [1.0]}]})
    lift = ["lift", "--x0", "0.5", "--path", path, "--out", str(tmp_path / "run")]
    assert main(["lift", "--scenario-file", _write(tmp_path, "line.json", line)] + lift[1:]) == 0
    capsys.readouterr()
    for spec in [dict(line, manifold={"dim": 1, "coords": [1]}),
                 dict(line, manifold={"dim": 2, "coords": ["x", None]}, fields=[["1", "0"]]),
                 dict(line, name=5),
                 dict(line, name=["line"])]:
        f = _write(tmp_path, "names.json", spec)
        assert _config_error(["check", "--scenario-file", f], capsys), spec
        assert _config_error(["lift", "--scenario-file", f] + lift[1:], capsys), spec


def test_a_parameter_named_like_a_coordinate_is_a_config_error(tmp_path, capsys):
    # {"x": 2} was ignored: the field x read the coordinate
    spec = {"group": {"type": "abelian", "dim": 1}, "manifold": {"dim": 1, "coords": ["x"]},
            "params": {"x": 2}, "fields": [["x"]]}
    f = _write(tmp_path, "shadow.json", spec)
    assert main(["check", "--scenario-file", f]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "'x' is also a coordinate name" in err


def _planar_action(fields, exclusions=()):
    return {
        "group": {"type": "abelian", "dim": 2},
        "manifold": {"dim": 2, "coords": ["x", "y"], "exclusions": list(exclusions)},
        "fields": fields,
    }


def test_a_box_entry_of_three_numbers_is_a_config_error(tmp_path, capsys):
    action = _planar_action([["1", "0"], ["0", "1"]])
    action["manifold"]["box"] = [[0.0, 1.0, 2.0], None]
    f = _write(tmp_path, "box3.json", action)
    assert main(["check", "--scenario-file", f]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "(lo, hi) pairs" in err


# '²' is a digit to str.isdigit, but no number to float()
@pytest.mark.parametrize("field", ["1e999*y", "x^10^10^4", "x^2^2^2^2^2", "x^²", "2²"])
def test_malformed_numbers_are_config_errors(tmp_path, capsys, field):
    f = _write(tmp_path, "a.json", _planar_action([[field, "0"], ["0", "1"]]))
    assert main(["check", "--scenario-file", f]) == 3
    err = capsys.readouterr().err
    assert "offset" in err and err.count("error:") == 1


def test_fields_not_evaluable_in_the_domain_are_config_errors(tmp_path, capsys):
    f = _write(tmp_path, "sqrt.json", _planar_action([["sqrt(x)", "0"], ["0", "1"]]))
    assert main(["check", "--scenario-file", f]) == 3
    assert "cannot be evaluated at" in capsys.readouterr().err
    loop = _write(tmp_path, "loop.json",
                  {"points": [[-1.0, 0.0], [-1.0, 0.5], [-1.5, 0.5], [-1.0, 0.0]]})
    base = ["holonomy", "--scenario-file", f, "--loop", loop, "--x0=-1,0"]
    for argv in (base, base + ["--frame", "1,0;0,1"]):
        assert main(argv) == 3
        assert "fields cannot be evaluated at [-1.0, " in capsys.readouterr().err
    # a division by zero there is the same input error, not a numerical failure
    f = _write(tmp_path, "inv.json", _planar_action([["1/x", "0"], ["0", "1"]]))
    loop = _write(tmp_path, "loop0.json", {"points": [[0.0, 0.0], [0.0, 0.5], [0.0, 0.0]]})
    assert main(["holonomy", "--scenario-file", f, "--loop", loop, "--x0", "0,0"]) == 3
    capsys.readouterr()
    # one field has no pair to bracket, and is still evaluated at each sample
    f = _write(tmp_path, "line.json", {"group": {"type": "abelian", "dim": 1},
                                       "manifold": {"dim": 1, "coords": ["x"]},
                                       "fields": [["log(-1 - x^2)"]]})
    assert main(["check", "--scenario-file", f]) == 3
    assert "fields cannot be evaluated at" in capsys.readouterr().err


def test_fields_that_are_not_finite_are_config_errors(tmp_path, capsys):
    # 1e308*1e308 is inf and inf*0 is NaN: no exception, but no value either
    f = _write(tmp_path, "nan.json", _planar_action([["1e308*1e308*0*y", "0"], ["0", "1"]]))
    assert main(["check", "--scenario-file", f]) == 3
    assert "fields are not finite at" in capsys.readouterr().err
    loop = _write(tmp_path, "loop.json",
                  {"points": [[1.0, 0.0], [1.0, 0.5], [1.5, 0.5], [1.0, 0.0]]})
    base = ["holonomy", "--scenario-file", f, "--loop", loop, "--x0=1,0"]
    for argv in (base, base + ["--frame", "1,0;0,1"]):
        assert main(argv) == 3
        assert "fields are not finite at [1.0, " in capsys.readouterr().err


def test_a_nan_bracket_residual_fails_the_check(tmp_path, capsys):
    # fields and partials are finite, but their products overflow and the
    # bracket sum is inf - inf
    f = _write(tmp_path, "big.json", _planar_action([["1e200*x", "1e200*y"], ["1e200*y", "1e200*x"]]))
    assert main(["check", "--scenario-file", f]) == 1
    out = capsys.readouterr().out
    assert "residual: nan" in out and "check: FAIL" in out


@pytest.mark.parametrize("field", [
    "+".join(["x"] * 250), "-" * 300 + "x", "(" * 400 + "x" + ")" * 400,
])
def test_deeply_nested_fields_are_config_errors(tmp_path, capsys, field):
    f = _write(tmp_path, "deep.json", _planar_action([[field, "0"], ["0", "1"]]))
    assert main(["check", "--scenario-file", f]) == 3
    assert "nests deeper than" in capsys.readouterr().err


def test_fields_at_the_depth_bound_are_checked(tmp_path, capsys):
    # x/x/.../x and y/y/.../y at the bound: each field depends on its own
    # coordinate only, so the fields commute, and their partials compile
    x_chain, y_chain = ("/".join([v] * (MAX_DEPTH + 1)) for v in "xy")
    action = _planar_action([[x_chain, "0"], ["0", y_chain]])
    action["manifold"]["box"] = [[1.0, 2.0], [1.0, 2.0]]
    f = _write(tmp_path, "bound.json", action)
    assert main(["check", "--scenario-file", f, "--samples", "20"]) == 0
    assert "check: PASS" in capsys.readouterr().out


# every kind of number and partial function an action file can hold; the
# valid terms are drawn three times as often, so that most files get past
# parsing to the field evaluation
_VALID_TERMS = [
    "x", "y", "-x", "0.5", "2", "1e308", "x^2^2^2", "y^3^3^3", "x^-2^3",
    "sqrt(x)", "sqrt(-y)", "log(x)", "log(-x)", "log(y)", "1/x",
]
_INVALID_TERMS = ["1e999", "1" + "0" * 400, "x^2^2^2^2^2", "y^10^10^3", "q", "sqrt(q)", "x^²", "2²"]
_FUZZ_TERMS = st.sampled_from(_VALID_TERMS * 3 + _INVALID_TERMS)
# nesting on both sides of expr.MAX_DEPTH: long '+'/'*' chains, deep
# parentheses and unary-minus chains
_FUZZ_LEVELS = st.integers(1, 2 * MAX_DEPTH)
_FUZZ_EXPRS = st.one_of(
    _FUZZ_TERMS,
    st.tuples(_FUZZ_TERMS, st.sampled_from("+-*/"), _FUZZ_TERMS).map(" ".join),
    st.tuples(st.sampled_from("+*"), _FUZZ_TERMS, _FUZZ_LEVELS).map(
        lambda t: t[0].join([t[1]] * t[2])),
    st.tuples(_FUZZ_TERMS, _FUZZ_LEVELS).map(lambda t: "(" * t[1] + t[0] + ")" * t[1]),
    st.tuples(_FUZZ_TERMS, _FUZZ_LEVELS).map(lambda t: "-" * t[1] + t[0]),
)


def test_fuzzed_action_files_exit_with_a_code(tmp_path, capsys, monkeypatch):
    # a stiff drawn field, such as y' = x^8/y near y = 0, takes the default
    # million steps (about 30 s) to reach the step limit; a lower limit ends
    # it with the same exit code
    monkeypatch.setattr(liecomplete.flow, "IntegratorConfig",
                        functools.partial(IntegratorConfig, max_steps=10_000))
    path = _write(tmp_path, "path.json", {
        "start": [0.0, 0.0], "segments": [{"type": "linear", "delta": [0.5, 0.25]}],
    })
    codes = []

    @settings(max_examples=60, deadline=None)
    @given(fields=st.lists(_FUZZ_EXPRS, min_size=4, max_size=4),
           exclusions=st.lists(_FUZZ_EXPRS, max_size=1))
    def check(fields, exclusions):
        f = _write(tmp_path, "fuzz.json",
                   _planar_action([fields[:2], fields[2:]], exclusions))
        codes.append(main(["check", "--scenario-file", f, "--samples", "20"]))
        codes.append(main(["lift", "--scenario-file", f, "--x0", "0.5,0.5",
                           "--path", path, "--out", str(tmp_path / "fuzz")]))
        capsys.readouterr()

    check()
    assert len(codes) >= 100
    assert set(codes) <= {0, 1, 2, 3, 4}
    assert sum(code != 3 for code in codes) >= 10


# ---------------------------------------------------------------------------
# lift


def test_lift_circle_writes_trace_and_summary(tmp_path):
    out = str(tmp_path / "run")
    code = main([
        "lift", "--scenario", "example6", "--x0", f"1,0,{U}",
        "--circle-turns", "1", "--chords-per-turn", "512", "--out", out,
    ])
    assert code == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["status"] == "complete"
    assert summary["winding"] == pytest.approx(1.0, abs=1e-9)
    assert summary["endpoint_m"][2] == pytest.approx(U * E_MINUS_2PI, rel=1e-6)
    assert summary["escape_time"] is None

    lines = (tmp_path / "run.trace.csv").read_text().splitlines()
    assert lines[0] == "t,g_X,g_Y,x,y,z"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 1.0, 0.0, U]
    # trailing row round-trips exactly through the 17-digit format
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0
    assert last[3:] == summary["endpoint_m"]


def test_lift_outputs_are_byte_identical(tmp_path):
    args = ["lift", "--scenario", "example6", "--x0", f"1,0,{U}",
            "--circle-turns", "0.5", "--chords-per-turn", "128"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()


def test_lift_escape_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "radial.json", {
        "start": [0.0, 0.0],
        "segments": [{"type": "linear", "delta": [-1.0, 0.0]}],
    })
    out = str(tmp_path / "esc")
    code = main(["lift", "--scenario", "example6", "--x0", f"1,0,{U}",
                 "--path", path, "--out", out])
    assert code == 2
    assert "escape time" in capsys.readouterr().out
    summary = json.loads((tmp_path / "esc.summary.json").read_text())
    assert summary["status"] == "escaped"
    assert abs(summary["escape_time"] - 1.0) < 1e-3
    assert summary["failed_segment"] == 0


def test_lift_with_a_velocity_past_the_first_step_norm_range(tmp_path):
    path = _write(tmp_path, "far.json", {"start": [0.0], "segments": [{"type": "linear", "delta": [1e150]}]})
    out = str(tmp_path / "far")
    assert main(["lift", "--scenario", "translation_rn", "--param", "n=1", "--x0", "0",
                 "--path", path, "--out", out]) == 0
    summary = json.loads((tmp_path / "far.summary.json").read_text())
    assert summary["status"] == "complete"


@pytest.mark.parametrize("durations", [[1e308, 1e308], [1e-320, 1.0]], ids=["total", "velocity"])
def test_lift_durations_that_leave_a_velocity_not_finite_are_config_errors(tmp_path, capsys, durations):
    # unchecked, these are a division by zero (exit 4) and a false escape at t = 0 (exit 2)
    path = _write(tmp_path, "p.json", {"start": [0.0, 0.0], "segments": [
        {"type": "linear", "delta": [1.0, 0.0], "duration": dur} for dur in durations]})
    assert _config_error(["lift", "--scenario", "example6", "--x0", "1,0,1", "--path", path,
                          "--out", str(tmp_path / "o")], capsys)


def test_lift_negative_x0_equals_syntax(tmp_path):
    path = _write(tmp_path, "step.json", {
        "start": [0.0, 0.0],
        "segments": [{"type": "linear", "delta": [-1.0, 0.0]}],
    })
    out = str(tmp_path / "neg")
    code = main(["lift", "--scenario", "example6", "--x0=-2,0,1",
                 "--path", path, "--out", out])
    assert code == 0
    summary = json.loads((tmp_path / "neg.summary.json").read_text())
    assert summary["endpoint_m"][0] == pytest.approx(-3.0, abs=1e-9)


def test_lift_plot_writes_polyline(tmp_path):
    out = str(tmp_path / "plt")
    main(["lift", "--scenario", "example6", "--x0", "1,0,1",
          "--circle-turns", "0.25", "--chords-per-turn", "64",
          "--out", out, "--plot"])
    lines = (tmp_path / "plt.polyline.csv").read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_lift_matrix_model_path(tmp_path):
    path = _write(tmp_path, "aff.json", {
        "start": [[1.0, 0.0], [0.0, 1.0]],
        "segments": [{"type": "exp", "X": [1.0, 0.0]}],
    })
    out = str(tmp_path / "aff")
    assert main(["lift", "--scenario", "affine", "--x0", "1",
                 "--path", path, "--out", out]) == 0
    summary = json.loads((tmp_path / "aff.summary.json").read_text())
    assert summary["endpoint_m"][0] == pytest.approx(2.0, abs=1e-9)
    assert summary["endpoint_g"][0][1] == pytest.approx(1.0, abs=1e-12)
    header = (tmp_path / "aff.trace.csv").read_text().splitlines()[0]
    assert header == "t,g_11,g_12,g_21,g_22,x"


def test_lift_argument_validation(tmp_path, capsys):
    path = _write(tmp_path, "p.json", {"start": [0.0, 0.0], "segments": []})
    base = ["lift", "--scenario", "example6", "--out", str(tmp_path / "o")]
    assert main(base + ["--x0", "1,0"]) == 3                       # wrong arity
    assert main(base + ["--x0", "1,0,1"]) == 3                     # no path at all
    assert main(base + ["--x0", "1,0,1", "--path", path,
                        "--circle-turns", "1"]) == 3               # both path forms
    assert main(base + ["--x0", "a,b,c", "--path", path]) == 3
    assert main(["lift", "--scenario", "affine", "--x0", "1",
                 "--circle-turns", "1", "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()
    # numbers from flags are finite, as numbers from files are
    for x0 in ["nan,0", "inf,0", "0,-inf"]:
        assert _config_error(["lift", "--scenario", "translation", "--x0", x0, "--path", path,
                              "--out", str(tmp_path / "o")], capsys), x0
    circle = base + ["--x0", "1,0,1"]
    for flags in [["--circle-turns", "nan"], ["--circle-turns", "inf"], ["--circle-turns", "-1"],
                  ["--circle-turns", "-0.5"], ["--circle-turns", "0"],
                  ["--circle-turns", "1", "--chords-per-turn", "0"],
                  ["--circle-turns", "1", "--chords-per-turn", "-3"],
                  ["--circle-turns", "1", "--start-g", "0,nan"]]:
        assert _config_error(circle + flags, capsys), flags


def test_huge_chord_and_sample_counts_exit_3_at_once(tmp_path, capsys):
    # a circle path's chords and the check's points are all built before they are
    # used, so counts past their caps are refused before any is built
    circle = ["lift", "--scenario", "example6", "--x0", "1,0,1", "--out", str(tmp_path / "o")]
    t0 = time.perf_counter()
    for flags in [["--circle-turns", "1e9"],
                  ["--circle-turns", "1e300", "--chords-per-turn", "10000000000"],
                  ["--circle-turns", repr(1.001 * MAX_CIRCLE_CHORDS / 4096)]]:
        assert _config_error(circle + flags, capsys), flags
    for samples in ("1000000000", str(MAX_SAMPLES + 1)):
        assert _config_error(["check", "--scenario", "example6", "--samples", samples], capsys)
    assert time.perf_counter() - t0 < 5.0


def test_empty_path_lift(tmp_path):
    path = _write(tmp_path, "empty.json", {"start": [0.4, -0.2], "segments": []})
    out = str(tmp_path / "empty")
    assert main(["lift", "--scenario", "example6", "--x0", "1,0,1",
                 "--path", path, "--out", out]) == 0
    summary = json.loads((tmp_path / "empty.summary.json").read_text())
    assert summary["endpoint_m"] == [1.0, 0.0, 1.0]
    assert summary["winding"] == 0.0


def test_bad_path_files(tmp_path, capsys):
    out = ["--out", str(tmp_path / "o"), "--x0", "1,0,1", "--scenario", "example6"]
    f1 = _write(tmp_path, "p1.json", {"start": [0, 0],
                "segments": [{"type": "linear", "X": [1, 0]}]})
    assert main(["lift", "--path", f1] + out) == 3
    f2 = _write(tmp_path, "p2.json", {"start": [0, 0],
                "segments": [{"type": "linear", "delta": [1, 0], "duration": 0}]})
    assert main(["lift", "--path", f2] + out) == 3
    capsys.readouterr()
    # the path rejects a duration that is not positive, the file one that is not a number
    for dur in [-1.5, "1"]:
        f2 = _write(tmp_path, "p2.json", {"start": [0, 0],
                    "segments": [{"type": "linear", "delta": [1, 0], "duration": dur}]})
        assert _config_error(["lift", "--path", f2] + out, capsys), dur
    f3 = _write(tmp_path, "p3.json", {"start": [0, 0], "segments": [], "also": 1})
    assert main(["lift", "--path", f3] + out) == 3
    assert main(["lift", "--path", str(tmp_path / "missing.json")] + out) == 3
    capsys.readouterr()
    # matrix-model starts must be matrices of numbers
    out = ["--out", str(tmp_path / "o"), "--x0", "1", "--scenario", "affine"]
    for start in [[[1, "0"], [0, 1]], [[1, 0], [0]], [[0, 0], [0, 1]]]:   # the last is singular
        f4 = _write(tmp_path, "p4.json", {"start": start, "segments": []})
        assert _config_error(["lift", "--path", f4] + out, capsys), start
    # group points that overflow, or round to a singular matrix, are not a lift
    for X in [[1e300, 1e300], [0, -800], [0, 746]]:
        f5 = _write(tmp_path, "p5.json", {"start": [[1, 0], [0, 1]],
                    "segments": [{"type": "exp", "X": X}]})
        assert _config_error(["lift", "--path", f5] + out, capsys), X


# ---------------------------------------------------------------------------
# holonomy


def _flat_loop(tmp_path, n=32):
    pts = [
        [math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n), 0.0]
        for k in range(n + 1)
    ]
    pts[-1] = pts[0]
    return _write(tmp_path, "loop.json", {"points": pts})


def test_holonomy_stdout(tmp_path, capsys):
    loop = _flat_loop(tmp_path)
    code = main(["holonomy", "--scenario", "example6", "--loop", loop, "--x0", "1,0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert max(abs(v) for v in payload["element"]) < 1e-9
    assert payload["round_trip_residual"] < 1e-6
    assert payload["closed"] is True
    assert "not decided" in payload["note"]


def test_holonomy_out_file_and_frame(tmp_path):
    loop = _flat_loop(tmp_path)
    out = str(tmp_path / "hol")
    code = main(["holonomy", "--scenario", "example6", "--loop", loop,
                 "--x0", "1,0,0", "--frame", "1,0;0,1", "--out", out])
    assert code == 0
    payload = json.loads((tmp_path / "hol.holonomy.json").read_text())
    assert payload["loop_points"] == 33


def test_holonomy_escaped_relift(tmp_path, capsys):
    loop = _write(tmp_path, "axis.json", {
        "points": [[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5], [1.0, 0.0, 0.5]],
    })
    code = main(["holonomy", "--scenario", "example6", "--loop", loop, "--x0", "1,0,0.5"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["round_trip_residual"] is None


def test_holonomy_open_curve(tmp_path, capsys):
    loop = _write(tmp_path, "open.json", {
        "points": [[x, 0.0] for x in (1.0, 1.25, 1.5, 1.75, 2.0)],
    })
    code = main(["holonomy", "--scenario", "translation", "--loop", loop,
                 "--x0", "1,0", "--open"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["element"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert payload["closed"] is False


def test_holonomy_bad_loop(tmp_path, capsys):
    loop = _write(tmp_path, "short.json", {"points": [[1.0, 0.0, 0.0]]})
    assert main(["holonomy", "--scenario", "example6", "--loop", loop,
                 "--x0", "1,0,0"]) == 3
    capsys.readouterr()
    ragged = _write(tmp_path, "ragged.json",
                    {"points": [[1.0, 0.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0]]})
    assert _config_error(["holonomy", "--scenario", "example6", "--loop", ragged,
                          "--x0", "1,0,0"], capsys)
    loop = _flat_loop(tmp_path)
    for substeps in ("0", "-3"):
        assert _config_error(["holonomy", "--scenario", "example6", "--loop", loop,
                              "--x0", "1,0,0", "--substeps", substeps], capsys)
    for flags in [["--frame", "1,nan"], ["--frame", "1,0;inf,1"], ["--x0", "1,0,nan"]]:
        assert _config_error(["holonomy", "--scenario", "example6", "--loop", loop,
                              "--x0", "1,0,0"] + flags, capsys), flags
    # a ragged frame, and an x0 with fewer coordinates than the loop points
    line = _write(tmp_path, "line.json", {"points": [[1.0], [1.5], [2.0]]})
    assert _config_error(["holonomy", "--scenario", "affine", "--open", "--frame", "1,0;1",
                          "--loop", line, "--x0", "1"], capsys)
    assert _config_error(["holonomy", "--scenario", "example6", "--frame", "1,0;0,1", "--open",
                          "--loop", loop, "--x0", "1,0"], capsys)


def test_holonomy_default_frame_spans_the_orbit(tmp_path, capsys):
    # the first basis field vanishes, so the frame is the second one
    action = _write(tmp_path, "a.json", {
        "group": {"type": "abelian", "dim": 2},
        "manifold": {"dim": 1, "coords": ["x"]},
        "fields": [["0"], ["1"]],
    })
    loop = _write(tmp_path, "loop.json", {"points": [[0.0], [0.5], [1.0]]})
    argv = ["holonomy", "--scenario-file", action, "--loop", loop, "--open", "--x0", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["element"] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert main(argv + ["--frame", "0,1"]) == 0
    assert capsys.readouterr().out == out
    # an exactly singular frame has an infinite condition number
    assert main(argv + ["--frame", "1,0"]) == 3
    assert "(cond inf)" in capsys.readouterr().err


def test_holonomy_at_a_fixed_point_asks_for_a_frame(tmp_path, capsys):
    action = _write(tmp_path, "a.json", {
        "group": {"type": "abelian", "dim": 1},
        "manifold": {"dim": 1, "coords": ["x"]},
        "fields": [["x"]],
    })
    loop = _write(tmp_path, "loop.json", {"points": [[0.0], [0.5], [0.0]]})
    argv = ["holonomy", "--scenario-file", action, "--loop", loop, "--x0", "0"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "x0 is a fixed point" in err and "--frame" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_groups_by_leaf(tmp_path, capsys):
    pts = {
        "points": [
            {"g": [0.0, 0.0], "x": [1.0, 0.0, U]},
            {"g": [-1.0, 1.0], "x": [0.0, 1.0, U * math.exp(-math.pi / 2)]},
            {"g": [0.0, 0.0], "x": [1.0, 0.0, U * math.exp(2.0 * math.pi)]},
            {"g": [0.0, 0.0], "x": [1.0, 0.0, 2.0 * U]},
            {"g": [0.0, 0.0], "x": [1.0, 0.0, 0.0]},
            {"g": [2.0, 0.0], "x": [3.0, 0.0, 0.0]},
        ]
    }
    f = _write(tmp_path, "pts.json", pts)
    assert main(["classify", "--scenario", "example6", "--points", f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 1.0
    assert payload["groups"] == [[0, 1, 2], [3], [4, 5]]
    assert payload["points"][4]["kind"] == "zero"
    assert payload["points"][0]["kind"] == "plus"


def test_classify_requires_helicoid(tmp_path, capsys):
    f = _write(tmp_path, "pts.json", {"points": [{"g": [0, 0], "x": [1, 0, 1]}]})
    assert main(["classify", "--scenario", "translation", "--points", f]) == 3
    capsys.readouterr()
    # an action file is refused even under the helicoid's name: the invariants
    # are its closed form, whatever the file's fields
    for params in ({}, {"alpha": 1.0}):
        action = _write(tmp_path, "flat.json",
                        dict(FLIPPED_ACTION, name="example6_helicoid", params=params))
        assert _config_error(["classify", "--scenario-file", action, "--points", f], capsys)


def test_classify_axis_point_is_config_error(tmp_path):
    f = _write(tmp_path, "pts.json", {"points": [{"g": [0, 0], "x": [0, 0, 1]}]})
    assert main(["classify", "--scenario", "example6", "--points", f]) == 3
    # JSON NaN is not a coordinate
    f = _write(tmp_path, "pts.json", {"points": [{"g": [0, 0], "x": [1, math.nan, 1]}]})
    assert main(["classify", "--scenario", "example6", "--points", f]) == 3


def test_classify_tolerance_must_be_finite_and_non_negative(tmp_path, capsys):
    f = _write(tmp_path, "pts.json", {"points": [{"g": [0, 0], "x": [1, 0, 1]},
                                                 {"g": [0, 0], "x": [1, 0, 2]}]})
    argv = ["classify", "--scenario", "example6", "--points", f, "--tol"]
    for tol in ("nan", "inf", "-1"):
        assert _config_error(argv + [tol], capsys), tol
    assert main(argv + ["0"]) == 0
    assert json.loads(capsys.readouterr().out)["groups"] == [[0], [1]]


# ---------------------------------------------------------------------------
# global argument handling


def test_usage_errors_exit_3(tmp_path, capsys):
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["check", "--scenario", "no_such_scenario"]) == 3
    assert main(["check"]) == 3          # no scenario given
    assert main(["lift", "--bogus-flag"]) == 3
    # each subcommand takes only the flags it reads
    assert main(["lift", "--scenario", "example6", "--x0", "1,0,1", "--circle-turns", "1",
                 "--out", str(tmp_path / "o"), "--seed", "1"]) == 3
    assert main(["check", "--scenario", "example6", "--rel-tol", "1e-6"]) == 3
    assert main(["classify", "--scenario", "example6", "--points", "p.json", "--seed", "1"]) == 3
    assert main(["classify", "--scenario", "example6", "--points", "p.json",
                 "--abs-tol", "1e-9"]) == 3
    capsys.readouterr()
    for samples in ("0", "-4"):
        assert _config_error(["check", "--scenario", "example6", "--samples", samples], capsys)
    assert _config_error(["check", "--scenario", "example6", "--seed", "-1"], capsys)


# argparse rejects these before any file is read
@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "--scenario", "example6", "--scenario-file", "action.json"],
    ["lift", "--scenario", "example6", "--x0", "1,0,1", "--out", "o"],
    ["lift", "--scenario", "example6", "--x0", "1,0,1", "--out", "o",
     "--path", "path.json", "--circle-turns", "1"],
], ids=["no-scenario", "both-scenarios", "no-path", "both-paths"])
def test_flag_exclusions_are_config_errors(capsys, argv):
    assert _config_error(argv, capsys)


@pytest.mark.parametrize("cls, is_input", [
    (ScenarioError, True), (ExprSyntaxError, True), (ExprNameError, True),
    (AlgebraError, True), (SingularElementError, True), (DomainError, True),
    (OutsideDomainError, True), (ActionError, True), (SamplingError, True),
    (PathError, True), (FrameConditionError, True), (LoopGeometryError, True),
    (LoopOutsideOrbitError, True), (MalformedWitnessError, True),
    # a field that leaves its domain during a run is a numerical failure (exit 4)
    (ExprDomainError, False),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_input_errors_share_the_class_main_maps_to_exit_3(cls, is_input):
    assert issubclass(cls, InputError) is is_input


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["lift", "--help"]) == 0
    out = capsys.readouterr().out
    assert "lift" in out


def test_scenario_params_via_flags(tmp_path, capsys):
    assert main(["check", "--scenario", "example6", "--param", "alpha=0"]) == 0
    assert main(["check", "--scenario", "translation", "--param", "n=3"]) == 0
    assert main(["check", "--scenario", "translation", "--param", "n=1"]) == 0
    assert "bracket homomorphism residual: 0\n" in capsys.readouterr().out
    assert main(["check", "--scenario", "example4", "--param", "r0=0.25"]) == 0
    assert main(["check", "--scenario", "example4", "--param", "r0"]) == 3
    assert main(["check", "--scenario", "example4", "--param", "r0=x"]) == 3
    capsys.readouterr()
    # past the cap on n, and an n whose build would never end, are refused before any build
    for value in ["nan", "inf", "2.5", str(MAX_TRANSLATION_DIM + 1), "1e300"]:
        assert _config_error(["check", "--scenario", "translation", "--param", f"n={value}"],
                             capsys), value
    for value in ["nan", "inf"]:
        assert _config_error(["lift", "--scenario", "example6", "--param", f"alpha={value}",
                              "--x0", "1,0,1", "--circle-turns", "1",
                              "--out", str(tmp_path / "o")], capsys), value


def test_params_override_those_an_action_file_declares(tmp_path, capsys):
    spec = {"group": {"type": "abelian", "dim": 1}, "manifold": {"dim": 1, "coords": ["x"]},
            "params": {"a": 1.0}, "fields": [["a*x"]]}
    f = _write(tmp_path, "a.json", spec)
    lift = ["lift", "--scenario-file", f, "--x0", "1", "--path",
            _write(tmp_path, "p.json", {"start": [0], "segments": [{"type": "linear", "delta": [1]}]})]
    assert main(lift + ["--out", str(tmp_path / "one")]) == 0
    assert main(lift + ["--param", "a=2", "--out", str(tmp_path / "two")]) == 0
    ends = [json.loads((tmp_path / f"{o}.summary.json").read_text())["endpoint_m"][0]
            for o in ("one", "two")]
    assert abs(ends[0] - math.e) < 1e-8 and abs(ends[1] - math.e ** 2) < 1e-7
    capsys.readouterr()
    # a name the file does not declare, or a value that is not finite, is the built-ins' error
    assert main(["check", "--scenario-file", f, "--param", "a=5", "--param", "zzz=1"]) == 3
    assert "error: scenario 'custom' has no parameter 'zzz'" in capsys.readouterr().err
    assert main(["check", "--scenario-file", f, "--param", "a=inf"]) == 3
    assert "error: parameter 'a' must be finite" in capsys.readouterr().err


HUGE = 10 ** 400   # json writes it as digits; float() of it overflows


@pytest.mark.parametrize("where", ["params", "box", "duration", "delta", "start", "loop", "classify"])
def test_integers_past_the_float_range_are_config_errors(tmp_path, capsys, where):
    action = {"group": {"type": "abelian", "dim": 1}, "manifold": {"dim": 1, "coords": ["x"]},
              "fields": [["1"]]}
    if where == "params":
        action["params"] = {"a": HUGE}
    elif where == "box":
        action["manifold"]["box"] = [[0, HUGE]]
    seg = {"type": "linear", "delta": [HUGE if where == "delta" else 1]}
    if where == "duration":
        seg["duration"] = HUGE
    path = {"start": [HUGE if where == "start" else 0], "segments": [seg]}
    files = {name: _write(tmp_path, f"{name}.json", spec) for name, spec in (
        ("action", action), ("path", path),
        ("loop", {"points": [[1, 0, 0], [HUGE, 0, 0], [1, 0, 0]]}),
        ("points", {"points": [{"g": [0, 0], "x": [1, 0, HUGE]}]}))}
    out = ["--out", str(tmp_path / "o")]
    argv = {
        "loop": ["holonomy", "--scenario", "example6", "--loop", files["loop"], "--x0", "1,0,0"],
        "classify": ["classify", "--scenario", "example6", "--points", files["points"]],
    }.get(where, ["lift", "--scenario-file", files["action"], "--x0", "0.5",
                  "--path", files["path"]] + out)
    assert _config_error(argv, capsys)


def test_a_group_dim_past_the_float_range_is_a_config_error(tmp_path, capsys):
    spec = {"group": {"type": "abelian", "dim": HUGE}, "manifold": {"dim": 1, "coords": ["x"]},
            "fields": [["1"]]}
    assert _config_error(["check", "--scenario-file", _write(tmp_path, "a.json", spec)], capsys)


def test_bad_integrator_tolerances(tmp_path, capsys):
    lift = ["lift", "--scenario", "example6", "--x0", "1,0,1",
            "--circle-turns", "0.1", "--out", str(tmp_path / "o")]
    assert main(lift + ["--rel-tol", "1e-6", "--abs-tol", "1e-9"]) == 0
    assert main(lift + ["--rel-tol", "1e-20"]) == 3
    for value in ["nan", "inf"]:
        assert main(lift + ["--abs-tol", value]) == 3
    loop = _flat_loop(tmp_path)
    holonomy = ["holonomy", "--scenario", "example6", "--loop", loop, "--x0", "1,0,0"]
    assert main(holonomy + ["--rel-tol", "1e-6", "--abs-tol", "1e-9"]) == 0
    assert main(holonomy + ["--rel-tol", "nan"]) == 3
    capsys.readouterr()
