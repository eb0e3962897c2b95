"""Acceptance gate.

Every deliverable criterion runs here at its stated tolerance and prints one
``ACCEPTANCE n (...): PASS``/``FAIL`` line (visible under ``pytest -s`` or in
the captured output of a failing run).  Randomized criteria use fixed seeds.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from liecomplete.cli import main
from liecomplete.completion import isotropy, loop_to_group, same_leaf
from liecomplete.flow import COMPLETE
from liecomplete.lift import GPath, LinearSeg, lift_path
from liecomplete.manifold import check_homomorphism
from liecomplete.scenarios import build, circle_loop_path

from scenario_oracles import (
    closure_gap,
    concat_paths,
    equal_p_witness,
    equivariance_check,
    reverse_path,
    universal_constancy_check,
)

_T0 = time.time()


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({label}): PASS")


def _helicoid(alpha=1.0):
    return build("example6_helicoid", {"alpha": alpha})


def test_criterion_01_bracket_homomorphism():
    with criterion(1, "bracket homomorphism residual"):
        action = _helicoid().action
        assert check_homomorphism(action, sample_count=200, seed=0) < 1e-8


def test_criterion_02_winding_law():
    with criterion(2, "winding law for 1..3 turns"):
        action = _helicoid().action
        for n in (1, 2, 3):
            path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=float(n),
                                    chords_per_turn=4096)
            res = lift_path(action, path, (1.0, 0.0, 1.0))
            assert res.status == COMPLETE
            expected = math.exp(-2.0 * math.pi * n)
            assert abs(res.endpoint_m[2] - expected) / expected < 1e-6
            assert res.winding == pytest.approx(float(n), abs=1e-9)


def test_criterion_03_quarter_circle_identification():
    with criterion(3, "quarter-circle leaf identification"):
        action = _helicoid().action
        u = 0.7
        w = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=0.25, chords_per_turn=4096)
        a = ((0.0, 0.0), (1.0, 0.0, u))
        good = ((-1.0, 1.0), (0.0, 1.0, u * math.exp(-math.pi / 2)))
        rec = same_leaf(action, a, good, w)
        assert rec.verdict == "identified" and rec.residual < 1e-6
        bad = ((-1.0, 1.0), (0.0, 1.0, u * math.exp(-math.pi / 2) * math.exp(math.pi)))
        rec = same_leaf(action, a, bad, w)
        assert rec.verdict == "not_identified_by_witness" and rec.residual > 1e-2


def test_criterion_04_full_period_identification():
    with criterion(4, "full-period pair via winding -1 witness"):
        action = _helicoid().action
        u = 0.7
        w = circle_loop_path((1.0, 0.0), (1.0, 0.0), turns=1.0,
                             chords_per_turn=4096, clockwise=True)
        a = ((1.0, 0.0), (1.0, 0.0, u))
        b = ((1.0, 0.0), (1.0, 0.0, u * math.exp(2.0 * math.pi)))
        rec = same_leaf(action, a, b, w)
        assert rec.verdict == "identified" and rec.residual < 1e-6
        assert rec.witness_winding == pytest.approx(-1.0, abs=1e-9)


def test_criterion_05_escape_detection(tmp_path):
    with criterion(5, "radial escape time and exit code"):
        path_file = tmp_path / "radial.json"
        path_file.write_text(json.dumps({
            "start": [0.0, 0.0],
            "segments": [{"type": "linear", "delta": [-1.0, 0.0]}],
        }))
        out = str(tmp_path / "esc")
        code = main(["lift", "--scenario", "example6_helicoid", "--x0", "1,0,0.7",
                     "--path", str(path_file), "--out", out])
        assert code == 2
        summary = json.loads((tmp_path / "esc.summary.json").read_text())
        assert summary["status"] == "escaped"
        assert abs(summary["escape_time"] - 1.0) < 1e-3


def test_criterion_06_isotropy():
    with criterion(6, "isotropy reports"):
        rep = isotropy(_helicoid().action, (1.0, 0.0, 1.0))
        assert min(rep.singular_values) > 0.9
        assert rep.nullspace.shape[0] == 0

        rep = isotropy(build("affine_line").action, (1.0,))
        assert rep.singular_values[-1] < 1e-10
        v = rep.nullspace[0]
        t = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert min(np.max(np.abs(v - t)), np.max(np.abs(v + t))) < 1e-8


def test_criterion_07_period_ratio_and_closure_gap():
    with criterion(7, "spiral period ratio and closure gap"):
        action = _helicoid().action
        z = [1.0]
        x = (1.0, 0.0, 1.0)
        for _ in range(3):
            path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0,
                                    chords_per_turn=4096)
            res = lift_path(action, path, x)
            assert res.status == COMPLETE
            z.append(res.endpoint_m[2])
            x = res.endpoint_m
        expected = math.exp(-2.0 * math.pi)
        for k in range(3):   # ratios at theta = 0, 2*pi, 4*pi
            assert abs(z[k + 1] / z[k] - expected) < 1e-6 * expected
        gap = closure_gap(1.0, 1.0, 6.0 * math.pi)
        assert abs(z[3] - gap) / gap < 1e-4


def test_criterion_08_flat_lifts_preserve_height():
    with criterion(8, "alpha=0 lifts preserve the third coordinate"):
        action = _helicoid(alpha=0.0).action
        rng = np.random.default_rng(8)
        for _ in range(20):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            x0 = (3.0 * math.cos(ang), 3.0 * math.sin(ang), rng.uniform(-2.0, 2.0))
            segs = [LinearSeg(tuple(rng.uniform(-0.8, 0.8, size=2)), 1.0)
                    for _ in range(3)]
            res = lift_path(action, GPath(action.group, (0.0, 0.0), segs), x0)
            assert res.status == COMPLETE
            assert abs(res.endpoint_m[2] - x0[2]) <= 1e-9


def test_criterion_09_annulus_constancy():
    with criterion(9, "annulus universal-target constancy"):
        sc = build("example4_annulus")
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = (rng.uniform(0.7, 1.8), rng.uniform(-5.5, 5.5))
            y = (rng.uniform(0.7, 1.8), rng.uniform(-5.5, 5.5))
            w = equal_p_witness(sc, (0.0, 0.0), x, y)
            assert universal_constancy_check(sc, w, x) < 1e-7
        x, y = (1.0, -math.pi), (1.0, math.pi)
        w = equal_p_witness(sc, (0.0, 0.0), x, y)
        rec = same_leaf(sc.action, ((0.0, 0.0), x), ((0.0, 0.0), y), w)
        assert rec.verdict == "identified" and rec.residual < 1e-6


def test_criterion_10_loop_reconstruction():
    with criterion(10, "loop and open-curve reconstruction"):
        heli = _helicoid().action
        rng = np.random.default_rng(10)
        frame = ((1.0, 0.0), (0.0, 1.0))
        for _ in range(10):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            c = rng.uniform(2.0, 4.0) * np.array([math.cos(ang), math.sin(ang)])
            r = rng.uniform(0.3, 1.0)
            n = int(rng.integers(16, 48))
            th = np.linspace(0.0, 2.0 * math.pi, n + 1)
            pts = np.column_stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th),
                                   np.zeros(n + 1)])
            pts[-1] = pts[0]
            hol = loop_to_group(heli, frame, pts, pts[0])
            assert hol.round_trip_residual < 1e-6

        aff = build("affine_line").action
        for _ in range(5):
            steps = rng.uniform(-0.3, 0.3, size=19)
            xs = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(steps)])
            pts = [(float(v),) for v in xs]
            hol = loop_to_group(aff, ((1.0, 0.0),), pts, pts[0], closed=False)
            assert hol.round_trip_residual < 1e-6

        pts = [(float(v),) for v in np.linspace(1.0, 2.0, 33)]
        hol = loop_to_group(aff, ((1.0, 0.0),), pts, (1.0,), closed=False)
        assert np.max(np.abs(np.asarray(hol.element) - [[1.0, 1.0], [0.0, 1.0]])) < 1e-10


def test_criterion_11_property_suites():
    with criterion(11, "property suites, 50 cases each"):
        t_start = time.time()
        heli = _helicoid().action
        G = heli.group

        rng = np.random.default_rng(111)
        exercised = 0
        for _ in range(50):   # flow group law
            X = tuple(rng.uniform(-1.0, 1.0, size=2))
            s, t = rng.uniform(0.1, 0.9, size=2)
            x0 = (2.0, 2.0, 0.5)
            whole = lift_path(heli, GPath.word(G, [(X, s + t)]), x0)
            first = lift_path(heli, GPath.word(G, [(X, s)]), x0)
            if whole.status != COMPLETE or first.status != COMPLETE:
                continue
            second = lift_path(heli, GPath.word(G, [(X, t)]), first.endpoint_m)
            if second.status != COMPLETE:
                continue
            assert np.max(np.abs(np.asarray(whole.endpoint_m) - second.endpoint_m)) < 1e-8
            exercised += 1
        assert exercised == 50

        rng = np.random.default_rng(112)
        exercised = 0
        for _ in range(50):   # word-inverse return
            X = tuple(rng.uniform(-1.0, 1.0, size=2))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            x0 = (3.0 * math.cos(ang), 3.0 * math.sin(ang), 0.5)
            out = lift_path(heli, GPath.word(G, [(X, 1.0), (X, -1.0)]), x0)
            if out.status != COMPLETE:
                continue
            assert np.max(np.abs(np.asarray(out.endpoint_m) - x0)) < 1e-8
            exercised += 1
        assert exercised == 50

        rng = np.random.default_rng(113)
        exercised = 0
        for _ in range(50):   # reparametrization invariance
            vecs = rng.uniform(-0.8, 0.8, size=(2, 2))
            lam = rng.uniform(0.2, 0.8)
            x0 = (3.0, 3.0, 0.5)
            segs = [LinearSeg(tuple(v), 1.0) for v in vecs]
            base = lift_path(heli, GPath(G, (0.0, 0.0), segs), x0)
            split = [LinearSeg(tuple(lam * vecs[0]), lam),
                     LinearSeg(tuple((1.0 - lam) * vecs[0]), 1.0 - lam),
                     LinearSeg(tuple(vecs[1]), 1.0)]
            alt = lift_path(heli, GPath(G, (0.0, 0.0), split), x0)
            if base.status != COMPLETE or alt.status != COMPLETE:
                continue
            assert np.max(np.abs(np.asarray(base.endpoint_m) - alt.endpoint_m)) < 1e-8
            exercised += 1
        assert exercised == 50

        rng = np.random.default_rng(114)
        exercised = 0
        for _ in range(50):   # concatenation
            v1, v2 = rng.uniform(-0.8, 0.8, size=(2, 2))
            x0 = (3.0, 3.0, 0.5)
            p1 = GPath(G, (0.0, 0.0), [LinearSeg(tuple(v1), 1.0)])
            p2 = GPath(G, tuple(v1), [LinearSeg(tuple(v2), 1.0)])
            r1 = lift_path(heli, p1, x0)
            if r1.status != COMPLETE:
                continue
            r2 = lift_path(heli, p2, r1.endpoint_m)
            joined = lift_path(heli, concat_paths(p1, p2), x0)
            if r2.status != COMPLETE or joined.status != COMPLETE:
                continue
            assert np.max(np.abs(np.asarray(joined.endpoint_m) - r2.endpoint_m)) < 1e-8
            exercised += 1
        assert exercised == 50

        rng = np.random.default_rng(115)
        for _ in range(50):   # equivariance under group offsets
            ang = rng.uniform(0.0, 2.0 * math.pi)
            x0 = (3.0 * math.cos(ang), 3.0 * math.sin(ang), 0.5)
            segs = [LinearSeg(tuple(rng.uniform(-0.5, 0.5, size=2)), 1.0)
                    for _ in range(2)]
            g = tuple(rng.uniform(-0.5, 0.5, size=2))
            path = GPath(G, (0.0, 0.0), segs)
            assert equivariance_check(heli, path, x0, g) < 1e-8

        rng = np.random.default_rng(116)
        for _ in range(50):   # same_leaf symmetry and transitivity on arcs
            ang = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(0.8, 2.0)
            z0 = rng.uniform(0.2, 2.0)
            t1, t2 = rng.uniform(0.1, 0.4, size=2)

            def arc_point(turns, z):
                th = ang + 2.0 * math.pi * turns
                return (radius * math.cos(th), radius * math.sin(th),
                        z * math.exp(-2.0 * math.pi * turns))

            pa = arc_point(0.0, z0)
            pb = arc_point(t1, z0)
            pc = arc_point(t1 + t2, z0)
            w1 = circle_loop_path((0.0, 0.0), pa[:2], turns=t1, chords_per_turn=256)
            w2 = circle_loop_path(w1.endpoint(), pb[:2], turns=t2, chords_per_turn=256)
            a = ((0.0, 0.0), pa)
            b = (tuple(w1.endpoint()), pb)
            c = (tuple(w2.endpoint()), pc)
            assert same_leaf(heli, a, b, w1).verdict == "identified"
            assert same_leaf(heli, b, a, reverse_path(w1)).verdict == "identified"
            assert same_leaf(heli, b, c, w2).verdict == "identified"
            joined = same_leaf(heli, a, c, concat_paths(w1, w2))
            assert joined.verdict == "identified" and joined.residual < 2e-6

        assert time.time() - t_start < 20.0


def test_acceptance_suite_runtime():
    elapsed = time.time() - _T0
    print(f"ACCEPTANCE (runtime): {elapsed:.1f}s")
    assert elapsed < 60.0
