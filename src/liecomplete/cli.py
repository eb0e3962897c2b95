"""Command-line front end.

Subcommands::

    check      validate a scenario or action file (bracket homomorphism residual)
    lift       lift a group path from a start point; CSV trace + JSON summary
    holonomy   reconstruct the group element over a manifold loop
    classify   leaf invariants for helicoid graph points, grouped by leaf

Exit codes: 0 success, 1 check failure, 2 escape, 3 invalid input/config,
4 numerical failure.  Exit 3 is every ``InputError``: the library's own
checks of what it is given, the file formats' checks here, and usage errors,
which argparse reports (flag exclusions included).  All file formats are
JSON in, CSV/JSON out; unknown keys in input files are hard errors so that
typos never silently change a run.  Outputs are byte-deterministic for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from ._record import InputError, floats, positive_int
from .algebra import AbelianGroup, MatrixGroup
from .expr import parse as parse_expr
from .manifold import Domain, GAction, check_homomorphism
from .scenarios import Scenario, _override_params, build, circle_loop_path, leaf_invariant, invariants_match

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ESCAPED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

CHECK_RESIDUAL_LIMIT = 1e-6


def _check_keys(obj: dict, required, optional, where: str):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    for k in required:
        if k not in obj:
            raise InputError(f"{where}: missing required key {k!r}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InputError(f"{where}: unknown key(s) {unknown}")


def _load_json(path: str, where: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{where}: file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{where}: invalid JSON ({e})") from None


def _floats(seq, where: str) -> list:
    """A JSON list of finite numbers as floats: a bool, a string or an int past the float range is none."""
    if not isinstance(seq, list):
        raise InputError(f"{where} must be a list of numbers")
    message = f"{where} must contain only finite numbers"
    if not all(type(v) in (int, float) for v in seq):
        raise InputError(message)
    out = floats(seq, InputError, message)
    if not all(map(math.isfinite, out)):
        raise InputError(message)
    return out


def _matrix(obj, where: str) -> list:
    """A non-empty list of rows of finite numbers, all of one length."""
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{where} must be a non-empty list of rows")
    rows = [_floats(row, where) for row in obj]
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputError(f"{where} must have rows of equal length")
    return rows


def _exprs(seq, where: str) -> list:
    if not isinstance(seq, list) or not all(isinstance(v, str) for v in seq):
        raise InputError(f"{where} must be a list of expression strings")
    return [parse_expr(v) for v in seq]


# ---------------------------------------------------------------------------
# scenario / action loading


def _action_from_file(path: str, overrides: dict) -> Scenario:
    """The action an action file describes, with ``overrides`` of the parameters it declares."""
    spec = _load_json(path, "action file")
    _check_keys(spec, ["group", "manifold", "fields"], ["name", "params"], "action file")
    gspec = spec["group"]
    _check_keys(gspec, ["type", "dim"], ["basis"], "group")
    mspec = spec["manifold"]
    _check_keys(mspec, ["dim", "coords"], ["box", "exclusions"], "manifold")

    d = positive_int(gspec["dim"], InputError, "group.dim")
    if gspec["type"] == "abelian":
        if "basis" in gspec:
            raise InputError("abelian group model takes no basis")
        group = AbelianGroup(d)
    elif gspec["type"] == "matrix":
        if "basis" not in gspec:
            raise InputError("matrix group model requires a basis")
        raw = gspec["basis"]
        mats = [_matrix(m, "basis matrix") for m in raw] if isinstance(raw, list) else []
        if len(mats) != d or any(len(m) != len(m[0]) or len(m) != len(mats[0]) for m in mats):
            raise InputError("basis must be d matrices of equal square shape")
        group = MatrixGroup(mats)
    else:
        raise InputError("group.type must be 'abelian' or 'matrix'")

    n = mspec["dim"]
    coords = mspec["coords"]
    if type(n) is not int or not isinstance(coords, list) or len(coords) != n:
        raise InputError("manifold.coords must list exactly manifold.dim names")
    if not all(isinstance(c, str) for c in coords):
        raise InputError("manifold.coords must be strings")
    box = None
    if "box" in mspec:
        raw = mspec["box"]
        if not isinstance(raw, list):
            raise InputError("manifold.box must be a list")
        box = [None if b is None else _floats(b, "box bound") for b in raw]
    margins = tuple(_exprs(mspec.get("exclusions", []), "manifold.exclusions"))
    name = spec.get("name", "custom")
    if not isinstance(name, str):
        raise InputError("name must be a string")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise InputError("params must be an object")
    params = _override_params(name, dict(zip(params, _floats(list(params.values()), "params"))),
                              overrides)
    fields_raw = spec["fields"]
    if not isinstance(fields_raw, list):
        raise InputError("fields must be a list of rows")
    fields = [_exprs(row, f"fields[{i}]") for i, row in enumerate(fields_raw)]
    action = GAction(group, Domain(tuple(coords), box=box, margins=margins), fields, params, name=name)
    return Scenario(name, dict(params), action)


def _scenario_from_args(args) -> Scenario:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise InputError(f"--param expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        params[k] = v   # the scenario converts it, or refuses a value that is not a number
    if args.scenario_file:
        return _action_from_file(args.scenario_file, params)
    return build(args.scenario, params)


def _integrator_config(args):
    from .flow import IntegratorConfig
    tols = {"rel_tol": args.rel_tol, "abs_tol": args.abs_tol}
    return IntegratorConfig(**{k: v for k, v in tols.items() if v is not None})


def _parse_vector(text: str, where: str) -> list:
    out = floats(text.split(","), InputError, f"{where} must be comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, out)):
        raise InputError(f"{where} must contain only finite numbers, got {text!r}")
    return out


# ---------------------------------------------------------------------------
# path / loop loading


def _path_from_file(path: str, group):
    from .lift import ExpSeg, GPath, LinearSeg
    spec = _load_json(path, "path file")
    _check_keys(spec, ["start", "segments"], [], "path file")
    if group.kind == "abelian":
        start = _floats(spec["start"], "path start")
    else:
        start = _matrix(spec["start"], "path start")
    segs = []
    raw = spec["segments"]
    if not isinstance(raw, list):
        raise InputError("segments must be a list")
    for i, s in enumerate(raw):
        where = f"segments[{i}]"
        _check_keys(s, ["type"], ["delta", "X", "duration"], where)
        dur, = _floats([s.get("duration", 1.0)], f"{where}: duration")
        if s["type"] == "linear":
            if "delta" not in s or "X" in s:
                raise InputError(f"{where}: linear segments take 'delta'")
            segs.append(LinearSeg(tuple(_floats(s["delta"], where)), dur))
        elif s["type"] == "exp":
            if "X" not in s or "delta" in s:
                raise InputError(f"{where}: exp segments take 'X'")
            segs.append(ExpSeg(tuple(_floats(s["X"], where)), dur))
        else:
            raise InputError(f"{where}: type must be 'linear' or 'exp'")
    return GPath(group, start, segs)


def _loop_from_file(path: str) -> list:
    spec = _load_json(path, "loop file")
    _check_keys(spec, ["points"], [], "loop file")
    return _matrix(spec["points"], "loop points")


# ---------------------------------------------------------------------------
# output


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _group_columns(action) -> tuple:
    """The CSV column names of a group point, and a function giving its cells in that order."""
    if action.group.kind == "abelian":
        return [f"g_{name}" for name in action.algebra.basis_names], tuple
    n = action.group.n
    return [f"g_{i + 1}{j + 1}" for i in range(n) for j in range(n)], lambda g: g.ravel()


def _nan_to_none(v):
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return None
    return v


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    scenario = _scenario_from_args(args)
    action = scenario.action
    residual = check_homomorphism(action, sample_count=args.samples, seed=args.seed)
    jacobi = action.algebra.jacobi_residual()
    print(f"scenario: {scenario.name}")
    print(f"samples: {args.samples} (seed {args.seed})")
    print(f"jacobi residual: {_fmt(jacobi)}")
    print(f"bracket homomorphism residual: {_fmt(residual)}")
    if residual < CHECK_RESIDUAL_LIMIT:
        print("check: PASS")
        return EXIT_OK
    print(f"check: FAIL (residual >= {CHECK_RESIDUAL_LIMIT:g})")
    return EXIT_CHECK_FAILED


def cmd_lift(args) -> int:
    from .flow import ESCAPED, STEP_LIMIT
    from .lift import lift_path
    scenario = _scenario_from_args(args)
    action = scenario.action
    cfg = _integrator_config(args)
    x0 = _parse_vector(args.x0, "--x0")
    if args.path:
        path = _path_from_file(args.path, action.group)
    else:
        if action.group.kind != "abelian" or action.group.dim != 2:
            raise InputError("--circle-turns requires a planar abelian group model")
        start = _parse_vector(args.start_g, "--start-g") if args.start_g else [0.0, 0.0]
        path = circle_loop_path(start, x0[:2], turns=args.circle_turns,
                                chords_per_turn=args.chords_per_turn, clockwise=args.clockwise)

    result = lift_path(action, path, x0, cfg)

    columns, cells = _group_columns(action)
    header = ["t"] + columns + list(action.domain.coords)
    rows = ([t, *cells(g), *m] for (t, g, m) in result.trace)
    _write_csv(args.out + ".trace.csv", header, rows)
    if args.plot:
        _write_csv(args.out + ".polyline.csv", list(action.domain.coords),
                   (list(m) for (_, _, m) in result.trace))
    summary = {
        "status": result.status,
        "endpoint_g": action.group.to_jsonable(result.endpoint_g),
        "endpoint_m": [float(v) for v in result.endpoint_m],
        "escape_time": _nan_to_none(result.escape_time),
        "failed_segment": result.failed_segment,
        "winding": _nan_to_none(result.winding),
        "low_confidence": bool(result.low_confidence),
    }
    _write_json(args.out + ".summary.json", summary)
    print(f"status: {result.status}")
    if result.status == ESCAPED:
        print(f"escape time: {_fmt(result.escape_time)}")
        return EXIT_ESCAPED
    if result.status == STEP_LIMIT:
        return EXIT_NUMERICAL
    return EXIT_OK


def _default_frame(action, x0) -> list:
    """Basis vectors, in order, whose fields at ``x0`` span the orbit there.

    A vector is kept when its field raises the rank of the fields kept before
    it, at ``isotropy``'s cutoff, until the orbit dimension is reached.  A
    fixed point has no such vector, and the user must give ``--frame``.
    """
    import numpy as np
    from .completion import isotropy
    iso = isotropy(action, x0)
    if iso.orbit_dim == 0:
        raise InputError("x0 is a fixed point of the action, so there is no default frame: "
                         "pass --frame")
    F = np.array(action.field_matrix(x0))
    kept: list = []
    for i in range(action.dim_algebra):
        if len(kept) == iso.orbit_dim:
            break
        if min(np.linalg.svd(F[kept + [i]], compute_uv=False)) >= iso.cutoff:
            kept.append(i)
    return np.eye(action.dim_algebra)[kept].tolist()


def cmd_holonomy(args) -> int:
    from .completion import loop_to_group
    scenario = _scenario_from_args(args)
    action = scenario.action
    cfg = _integrator_config(args)
    x0 = _parse_vector(args.x0, "--x0")
    loop = _loop_from_file(args.loop)
    if args.frame:
        frame = [_parse_vector(row, "--frame") for row in args.frame.split(";")]
    else:
        frame = _default_frame(action, x0)
    hol = loop_to_group(action, frame, loop, x0, cfg, closed=not args.open, substeps=args.substeps)
    payload = {
        "element": action.group.to_jsonable(hol.element),
        "round_trip_residual": _nan_to_none(hol.round_trip_residual),
        "loop_points": hol.loop_points,
        "closed": hol.closed,
        "note": hol.note,
    }
    _write_json(args.out + ".holonomy.json" if args.out else None, payload)
    if not math.isfinite(hol.round_trip_residual):
        print("round trip: escaped", file=sys.stderr)
        return EXIT_ESCAPED
    return EXIT_OK


def cmd_classify(args) -> int:
    scenario = _scenario_from_args(args)
    if scenario.name != "example6_helicoid":
        raise InputError("classify requires the example6_helicoid scenario")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise InputError(f"--tol must be finite and >= 0, got {args.tol}")
    alpha = scenario.params["alpha"]
    spec = _load_json(args.points, "points file")
    _check_keys(spec, ["points"], [], "points file")
    raw = spec["points"]
    if not isinstance(raw, list) or not raw:
        raise InputError("points file needs a non-empty 'points' list")
    invariants = []
    records = []
    for i, entry in enumerate(raw):
        _check_keys(entry, ["g", "x"], [], f"points[{i}]")
        g = _floats(entry["g"], f"points[{i}].g")
        x = _floats(entry["x"], f"points[{i}].x")
        try:
            inv = leaf_invariant(alpha, g, x)
        except InputError as e:
            raise InputError(f"points[{i}]: {e}") from None
        invariants.append(inv)
        records.append({"index": i, "g": g, "x": x, "base": list(inv.base),
                        "kind": inv.kind, "value": inv.value})
    groups: list = []
    reps: list = []
    for i, inv in enumerate(invariants):
        for gi, rep in enumerate(reps):
            if invariants_match(rep, inv, tol=args.tol):
                groups[gi].append(i)
                break
        else:
            reps.append(inv)
            groups.append([i])
    payload = {"alpha": alpha, "points": records, "groups": groups}
    _write_json(args.out + ".classes.json" if args.out else None, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage errors must exit with the config-error code, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _add_scenario_args(p: argparse.ArgumentParser, action_files: bool = True):
    if action_files:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", help="built-in scenario name")
        source.add_argument("--scenario-file", help="JSON action description")
    else:
        p.add_argument("--scenario", required=True, help="built-in scenario name")
        p.set_defaults(scenario_file=None)
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="generic scenario parameter override (repeatable)",
    )


def _add_tolerance_args(p: argparse.ArgumentParser):
    p.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    p.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liecomplete",
        description="Complete Lie algebra actions numerically: lift, check, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an action's bracket homomorphism")
    _add_scenario_args(p)
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--samples", type=int, default=200, help="sample points (default 200)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("lift", help="lift a group path from a start point")
    _add_scenario_args(p)
    _add_tolerance_args(p)
    p.add_argument("--x0", required=True, help="start point, comma-separated")
    path = p.add_mutually_exclusive_group(required=True)
    path.add_argument("--path", help="path file (JSON)")
    path.add_argument("--circle-turns", type=float,
                      help="instead of --path: wind the projection this many turns")
    p.add_argument("--chords-per-turn", type=int, default=4096,
                   help="chord density for --circle-turns (default 4096)")
    p.add_argument("--clockwise", action="store_true", help="wind clockwise")
    p.add_argument("--start-g", help="group start for --circle-turns (default origin)")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--plot", action="store_true",
                   help="also write a manifold-projection polyline CSV")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("holonomy", help="group element over a manifold loop")
    _add_scenario_args(p)
    _add_tolerance_args(p)
    p.add_argument("--loop", required=True, help="loop file (JSON)")
    p.add_argument("--x0", required=True, help="loop base point, comma-separated")
    p.add_argument("--frame", help="semicolon-separated algebra vectors, e.g. '1,0;0,1'")
    p.add_argument("--open", action="store_true", help="allow a non-closed curve")
    p.add_argument("--substeps", type=int, default=4, help="sub-chords per chord (default 4)")
    p.add_argument("--out", help="output prefix (default: JSON to stdout)")
    p.set_defaults(fn=cmd_holonomy)

    # leaf invariants are the helicoid's closed form: an action file may carry
    # any fields under that name, so only the built-in scenario is accepted
    p = sub.add_parser("classify", help="leaf invariants of helicoid graph points")
    _add_scenario_args(p, action_files=False)
    p.add_argument("--points", required=True, help="points file (JSON)")
    p.add_argument("--tol", type=float, default=1e-6, help="grouping tolerance")
    p.add_argument("--out", help="output prefix (default: JSON to stdout)")
    p.set_defaults(fn=cmd_classify)

    return parser


def _linalg_errors() -> tuple:
    """numpy's ``LinAlgError`` once numpy is loaded; only the matrix model and SVDs load it."""
    np = sys.modules.get("numpy")
    return () if np is None else (np.linalg.LinAlgError,)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:          # argparse --help
        return int(e.code or 0)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, *_linalg_errors()) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
