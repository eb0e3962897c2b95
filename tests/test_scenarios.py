"""Built-in scenarios, closed-form oracles, and the universal constancy check."""

import gc
import math
import re

import numpy as np
import pytest

from liecomplete.flow import COMPLETE
from liecomplete.algebra import AbelianGroup
from liecomplete.lift import ExpSeg, GPath, LinearSeg, PathError, _Chords, lift_path
from liecomplete.manifold import check_homomorphism
from liecomplete.scenarios import (
    LeafInvariant,
    ScenarioError,
    build,
    circle_loop_path,
    invariants_match,
    leaf_invariant,
    _ALIASES,
    _BUILDERS,
    scenario_names,
)

from scenario_oracles import closure_gap, equal_p_witness, oracle_z, universal_constancy_check

E_MINUS_2PI = 1.8674427317079893e-3


# ---------------------------------------------------------------------------
# builders


def test_all_builders_satisfy_bracket_homomorphism():
    for name in scenario_names():
        sc = build(name)
        assert check_homomorphism(sc.action, sample_count=200, seed=0) < 1e-8, name


def test_helicoid_fields():
    a = build("example6_helicoid", {"alpha": 1.0}).action
    assert np.allclose(a.zeta((0.0, 1.0), (1.0, 0.0, 2.0)), (0.0, 1.0, -2.0))
    assert np.allclose(a.zeta((1.0, 0.0), (0.0, 1.0, 2.0)), (1.0, 0.0, 2.0))


def test_alpha_zero_is_plain_translation():
    a = build("example6_helicoid", {"alpha": 0.0}).action
    for pt in [(1.0, 0.0, 5.0), (-2.0, 3.0, -1.0)]:
        assert np.allclose(a.zeta((1.0, 0.0), pt), (1.0, 0.0, 0.0))
        assert np.allclose(a.zeta((0.0, 1.0), pt), (0.0, 1.0, 0.0))


def test_aliases_and_names():
    assert scenario_names() == [
        "affine_line",
        "example4_annulus",
        "example6_helicoid",
        "translation_rn",
    ]
    for alias, key in [*((key, key) for key in _BUILDERS), *_ALIASES.items()]:
        assert build(alias).name == key
    assert build("translation", {"n": 3}).action.dim_manifold == 3
    overrides = {"translation_rn": {"n": 3}, "example4_annulus": {"r0": 0.25, "theta_max": 1.0},
                 "example6_helicoid": {"alpha": 2.0}, "affine_line": {}}
    assert set(overrides) == set(_BUILDERS)
    for key, (_, defaults) in _BUILDERS.items():
        assert build(key).params == defaults
        assert build(key, overrides[key]).params == {**defaults, **overrides[key]}


def test_build_errors():
    with pytest.raises(ScenarioError):
        build("no_such_scenario")
    with pytest.raises(ScenarioError):
        build("example6_helicoid", {"beta": 1.0})
    with pytest.raises(ScenarioError):
        build("example6_helicoid", {"alpha": -1.0})
    with pytest.raises(ScenarioError):
        build("translation_rn", {"n": 0})
    with pytest.raises(ScenarioError):
        build("example4_annulus", {"r0": 3.0})
    with pytest.raises(ScenarioError):
        build("example4_annulus", {"theta_min": 7.0})


def test_scenario_metadata():
    sc = build("example6_helicoid", {"alpha": 2.0})
    assert sc.params == {"alpha": 2.0}


# ---------------------------------------------------------------------------
# closed-form oracles


def test_oracle_z_values():
    assert oracle_z(1.0, 1.0, 2.0 * math.pi) == pytest.approx(E_MINUS_2PI, rel=1e-15)
    assert oracle_z(1.0, 0.7, 0.0) == 0.7
    assert oracle_z(1.0, 1.0, -2.0 * math.pi) == pytest.approx(535.4916555247646, rel=1e-14)
    assert oracle_z(0.5, 1.0, 2.0 * math.pi) == pytest.approx(math.exp(-math.pi), rel=1e-15)
    assert oracle_z(0.0, 0.7, 123.0) == 0.7


def test_closure_gap():
    assert closure_gap(1.0, 1.0, 2.0 * math.pi) == pytest.approx(E_MINUS_2PI, rel=1e-15)
    assert closure_gap(1.0, 0.0, 5.0) == 0.0
    ratio = closure_gap(0.5, 0.7, 10.0 + 2.0 * math.pi) / closure_gap(0.5, 0.7, 10.0)
    assert ratio == pytest.approx(math.exp(-math.pi), rel=1e-12)
    with pytest.raises(ScenarioError):
        closure_gap(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# leaf invariants


def test_leaf_invariant_base_offset():
    inv = leaf_invariant(1.0, (2.0, 3.0), (1.0, 1.0, 0.5))
    assert inv.base == (1.0, 2.0)
    assert inv.kind == "plus"


def test_leaf_invariant_constant_along_lifts():
    sc = build("example6_helicoid", {"alpha": 1.0})
    x0 = (1.0, 0.0, 0.7)
    path = GPath(
        sc.action.group,
        (0.0, 0.0),
        [LinearSeg((0.5, 1.0), 1.0), LinearSeg((-1.5, 0.3), 1.0), LinearSeg((0.2, -2.0), 1.0)],
    )
    res = lift_path(sc.action, path, x0)
    assert res.status == COMPLETE
    i0 = leaf_invariant(1.0, (0.0, 0.0), x0)
    i1 = leaf_invariant(1.0, res.endpoint_g, res.endpoint_m)
    assert invariants_match(i0, i1)


def test_leaf_invariant_quarter_circle_pair():
    a = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, 0.7))
    b = leaf_invariant(1.0, (-1.0, 1.0), (0.0, 1.0, 0.7 * math.exp(-math.pi / 2)))
    assert invariants_match(a, b)


def test_leaf_invariant_scaling_by_full_period():
    u = 0.7
    a = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, u))
    b = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, u * math.exp(2.0 * math.pi)))
    c = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, 2.0 * u))
    assert invariants_match(a, b)
    assert not invariants_match(a, c)


def test_leaf_invariant_signs_and_zero():
    up = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, 0.5))
    dn = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, -0.5))
    zero = leaf_invariant(1.0, (0.0, 0.0), (1.0, 0.0, 0.0))
    assert up.kind == "plus" and dn.kind == "minus" and zero.kind == "zero"
    assert zero.value is None
    assert not invariants_match(up, dn)
    assert invariants_match(zero, leaf_invariant(1.0, (2.0, 0.0), (3.0, 0.0, 0.0)))


def test_leaf_invariant_alpha_zero_keeps_height():
    a = leaf_invariant(0.0, (0.0, 0.0), (1.0, 0.0, 0.5))
    assert a.kind == "alpha0" and a.value == 0.5
    b = leaf_invariant(0.0, (0.0, 0.0), (1.0, 0.0, 1.5))
    assert not invariants_match(a, b)


def test_leaf_invariant_validation():
    with pytest.raises(ScenarioError):
        leaf_invariant(1.0, (0.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(ScenarioError):
        leaf_invariant(1.0, (0.0,), (1.0, 0.0, 1.0))
    for g, x in [((0.0, "a"), (1.0, 0.0, 1.0)), ((0.0, 0.0), (1.0, None, 1.0)), (5.0, (1.0, 0.0, 1.0))]:
        with pytest.raises(ScenarioError, match="expects g in R\\^2"):
            leaf_invariant(1.0, g, x)
    # a non-finite phase has no floor
    for alpha, x in [(math.inf, (1.0, 0.0, 1.0)), (math.nan, (1.0, 0.0, 1.0)),
                     (1.0, (1.0, 0.0, math.inf)), (1.0, (math.nan, 0.0, 1.0))]:
        with pytest.raises(ScenarioError, match="all finite"):
            leaf_invariant(alpha, (0.0, 0.0), x)


def test_invariants_match_wraps_around():
    lo = LeafInvariant((0.0, 0.0), "plus", 5e-7)
    hi = LeafInvariant((0.0, 0.0), "plus", 1.0 - 5e-7)
    far = LeafInvariant((0.0, 0.0), "plus", 0.5)
    off = LeafInvariant((1.0, 0.0), "plus", 5e-7)
    assert invariants_match(lo, hi)
    assert not invariants_match(lo, far)
    assert not invariants_match(lo, off)


# ---------------------------------------------------------------------------
# path constructors


def test_circle_loop_path_geometry():
    full = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=256)
    assert full.n_segments == 256
    assert np.max(np.abs(full.endpoint())) < 1e-12
    quarter = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=0.25, chords_per_turn=256)
    assert quarter.n_segments == 64
    assert np.allclose(quarter.endpoint(), (-1.0, 1.0), atol=1e-12)
    cw = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=0.25, chords_per_turn=256, clockwise=True)
    assert np.allclose(cw.endpoint(), (-1.0, -1.0), atol=1e-12)


def test_circle_loop_path_validation():
    with pytest.raises(ScenarioError):
        circle_loop_path((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ScenarioError):
        circle_loop_path((0.0, 0.0), (1.0, 0.0, 0.0))
    for bad in ({"turns": 0.0}, {"turns": math.inf}, {"chords_per_turn": 0.5}, {"chords_per_turn": math.inf}):
        with pytest.raises(ScenarioError, match="finite"):
            circle_loop_path((0.0, 0.0), (1.0, 0.0), **bad)


def _tracked(call) -> tuple:
    """``call()``, and the number of GC-tracked objects it leaves alive.

    The collector is off while ``call`` runs: a collection untracks tuples
    that hold only floats, which would hide the tuples a call leaves.
    """
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        out = call()
        return out, len(gc.get_objects()) - before
    finally:
        gc.enable()


def _tracked_by_circle_path(chords: int) -> int:
    """The GC-tracked objects that building a circle path of ``chords`` chords leaves alive."""
    path, tracked = _tracked(lambda: circle_loop_path((0.5, -0.5), (1.0, 0.2), chords_per_turn=chords))
    assert path.n_segments == chords
    return tracked


def _tracked_by_lift(chords: int) -> tuple:
    """The GC-tracked objects that a helicoid lift over a circle path of ``chords`` chords leaves alive.

    Returns those of the lift, and those of the first read of its trace.
    """
    action = build("example6_helicoid").action
    path = circle_loop_path((0.5, -0.5), (1.0, 0.2), chords_per_turn=chords)
    res, lifted = _tracked(lambda: lift_path(action, path, (1.0, 0.2, 0.7)))
    (t, _, _), traced = _tracked(lambda: res.trace)
    assert res.status == COMPLETE and len(t) > chords
    return lifted, traced


def test_circle_loop_path_builds_no_object_per_chord(monkeypatch):
    built = []
    init = LinearSeg.__init__

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(LinearSeg, "__init__", counted_init)
    path = circle_loop_path((0.5, -0.5), (1.0, 0.2), chords_per_turn=257)
    assert built == []
    # reading segments builds each chord's LinearSeg then
    assert len(list(path.segments)) == 257 and len(built) == 257
    _tracked_by_circle_path(16)   # lazy set-up first
    assert _tracked_by_circle_path(64) == _tracked_by_circle_path(4096)


def test_a_lift_and_its_trace_read_build_no_object_per_step():
    # the trace is held as columns of floats: a step appends to them and builds no tuple
    _tracked_by_lift(16)   # lazy set-up first
    assert _tracked_by_lift(64) == _tracked_by_lift(4096)


def _affine_walk(points: int) -> list:
    return [(math.exp(0.3 * math.sin(0.1 * k)),) for k in range(points)]


def _tracked_by_loop_to_group(points: int) -> int:
    """The GC-tracked objects that ``loop_to_group`` of an affine walk under frame T leaves alive."""
    from liecomplete.completion import loop_to_group

    action, pts = build("affine_line").action, _affine_walk(points)
    hol, tracked = _tracked(lambda: loop_to_group(action, ((1.0, 0.0),), pts, pts[0], closed=False))
    assert hol.path.n_segments == 4 * (points - 1)
    return tracked


def test_loop_to_group_builds_no_object_per_sub_chord():
    # the sub-chords' rates are held as columns: neither the loop's nodes nor
    # its path leave an object per sub-chord
    _tracked_by_loop_to_group(20)   # the first call compiles kernels
    assert _tracked_by_loop_to_group(65) == _tracked_by_loop_to_group(257)


def _segment_bits(segs) -> list:
    return [(type(s), [v.hex() for v in (s.X if isinstance(s, ExpSeg) else s.delta)], s.duration.hex())
            for s in segs]


def test_chord_segments_index_and_slice_as_their_list():
    from liecomplete.completion import loop_to_group

    pts = _affine_walk(4)
    paths = [circle_loop_path((0.0, 0.0), (1.0, 0.0), chords_per_turn=8),
             loop_to_group(build("affine_line").action, ((1.0, 0.0), (0.0, 1.0)), pts, pts[0],
                           closed=False).path]
    for path, kind in zip(paths, (LinearSeg, ExpSeg)):
        segs = path.segments
        assert isinstance(segs, _Chords)
        items = list(segs)
        assert len(items) == len(segs) == path.n_segments and {type(s) for s in items} == {kind}
        for k in (0, 1, -1, -len(items)):
            assert _segment_bits([segs[k]]) == _segment_bits([items[k]])
        for k in (len(items), -len(items) - 1):
            with pytest.raises(IndexError):
                segs[k]
        for sl in (slice(1, 3), slice(-3, None), slice(-5, -1), slice(None, -2), slice(2, 2),
                   slice(3, 1), slice(None, None, 2), slice(None, None, -1), slice(-100, 100)):
            assert _segment_bits(segs[sl]) == _segment_bits(items[sl]), sl


def test_circle_loop_path_fails_as_its_segment_objects_do():
    message = "segment vectors and velocities (vector over share of the clock) must be finite"
    with pytest.raises(PathError, match=re.escape(message)):
        circle_loop_path((0, 0), (1e308, 1e308))
    # a circle path's segments in another group model are checked as segment objects
    segs = circle_loop_path((0.0, 0.0), (1.0, 0.0), chords_per_turn=8).segments
    with pytest.raises(PathError, match="requires the abelian group model"):
        GPath(build("affine_line").action.group, np.eye(2), segs)
    with pytest.raises(PathError, match="must have length 3"):
        GPath(AbelianGroup(3), (0.0, 0.0, 0.0), segs)


def test_equal_p_witness_identifies_equal_image_points():
    from liecomplete.completion import same_leaf

    sc = build("example4_annulus")
    x, y = (1.0, -math.pi), (1.0, math.pi)
    w = equal_p_witness(sc, (0.0, 0.0), x, y)
    assert np.max(np.abs(w.endpoint())) < 1e-12   # equal image => closed loop
    rec = same_leaf(sc.action, ((0.0, 0.0), x), ((0.0, 0.0), y), w)
    assert rec.verdict == "identified"
    assert rec.residual < 1e-6


def test_equal_p_witness_needs_annulus():
    with pytest.raises(ScenarioError):
        equal_p_witness(build("affine_line"), (0.0, 0.0), (1.0,), (2.0,))


# ---------------------------------------------------------------------------
# universal constancy


def test_constancy_annulus():
    sc = build("example4_annulus")
    w = equal_p_witness(sc, (0.0, 0.0), (1.0, -math.pi), (1.0, math.pi))
    assert universal_constancy_check(sc, w, (1.0, -math.pi)) < 1e-7


def test_constancy_translation_and_flat_helicoid():
    tr = build("translation_rn")
    p = GPath(tr.action.group, (0.0, 0.0), [LinearSeg((1.0, -2.0), 1.0)])
    assert universal_constancy_check(tr, p, (0.3, 0.4)) < 1e-12

    flat = build("example6_helicoid", {"alpha": 0.0})
    loop = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=128)
    assert universal_constancy_check(flat, loop, (1.0, 0.0, 0.7)) < 1e-9


def test_constancy_affine():
    sc = build("affine_line")
    from liecomplete.lift import ExpSeg

    p = GPath(sc.action.group, np.eye(2), [ExpSeg((0.6, -0.4), 1.0), ExpSeg((-0.3, 0.8), 1.0)])
    assert universal_constancy_check(sc, p, (1.0,)) < 1e-9


def test_constancy_empty_path_is_zero():
    tr = build("translation_rn")
    p = GPath(tr.action.group, (0.0, 0.0), [])
    assert universal_constancy_check(tr, p, (0.0, 0.0)) == 0.0


def test_constancy_requires_a_target():
    sc = build("example6_helicoid", {"alpha": 1.0})
    p = GPath(sc.action.group, (0.0, 0.0), [LinearSeg((1.0, 0.0), 1.0)])
    with pytest.raises(ScenarioError):
        universal_constancy_check(sc, p, (1.0, 0.0, 0.7))


# ---------------------------------------------------------------------------
# the winding law, end to end


def test_lift_matches_oracle_z():
    sc = build("example6_helicoid", {"alpha": 1.0})
    u = 0.7
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=0.5, chords_per_turn=512)
    res = lift_path(sc.action, path, (1.0, 0.0, u))
    assert res.status == COMPLETE
    assert res.endpoint_m[2] == pytest.approx(oracle_z(1.0, u, math.pi), rel=1e-6)
