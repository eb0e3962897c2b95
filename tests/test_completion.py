"""Isotropy reports, leaf identification, and loop reconstruction."""

import math

import numpy as np
import pytest

from liecomplete.algebra import AbelianGroup
from liecomplete.completion import (
    FrameConditionError,
    HolonomyElement,
    LoopGeometryError,
    LoopOutsideOrbitError,
    MalformedWitnessError,
    isotropy,
    loop_to_group,
    same_leaf,
)
from liecomplete.expr import parse
from liecomplete.flow import ESCAPED
from liecomplete.lift import GPath, LinearSeg
from liecomplete.manifold import Domain, GAction, OutsideDomainError
from liecomplete.scenarios import build, circle_loop_path

from scenario_oracles import concat_paths, isotropy_dim, reverse_path

U = 0.7


@pytest.fixture(scope="module")
def helicoid():
    return build("example6_helicoid", {"alpha": 1.0}).action


@pytest.fixture(scope="module")
def affine():
    return build("affine_line").action


# ---------------------------------------------------------------------------
# isotropy


def test_isotropy_off_axis_is_free(helicoid):
    rep = isotropy(helicoid, (1.0, 0.0, 1.0))
    assert rep.singular_values == pytest.approx((math.sqrt(2.0), 1.0), rel=1e-12)
    assert rep.nullspace.shape == (0, 2)
    assert rep.orbit_dim == 2
    assert isotropy_dim(rep) == 0


def test_isotropy_affine_generic_point(affine):
    rep = isotropy(affine, (1.0,))
    assert rep.singular_values == pytest.approx((math.sqrt(2.0), 0.0), abs=1e-12)
    assert rep.orbit_dim == 1
    v = rep.nullspace[0]
    target = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert min(np.max(np.abs(v - target)), np.max(np.abs(v + target))) < 1e-8


def test_isotropy_affine_fixed_point(affine):
    # dilation fixes the origin
    rep = isotropy(affine, (0.0,))
    assert rep.singular_values == pytest.approx((1.0, 0.0), abs=1e-12)
    assert min(np.max(np.abs(rep.nullspace[0] - (0, 1))),
               np.max(np.abs(rep.nullspace[0] + (0, 1)))) < 1e-12


def test_isotropy_zero_generator_axis():
    action = GAction(
        AbelianGroup(3),
        Domain(("x", "y")),
        [
            [parse("1"), parse("0")],
            [parse("0"), parse("1")],
            [parse("0"), parse("0")],
        ],
    )
    rep = isotropy(action, (0.3, -2.0))
    assert rep.singular_values == pytest.approx((1.0, 1.0, 0.0), abs=1e-12)
    assert rep.orbit_dim == 2
    assert min(np.max(np.abs(rep.nullspace[0] - (0, 0, 1))),
               np.max(np.abs(rep.nullspace[0] + (0, 0, 1)))) < 1e-12


def test_isotropy_nullvectors_kill_the_field(affine):
    for x in (0.4, 1.7, -2.3):
        rep = isotropy(affine, (x,))
        for v in rep.nullspace:
            assert np.linalg.norm(affine.zeta(v, (x,))) < 1e-12


def test_isotropy_requires_domain_point(helicoid):
    with pytest.raises(OutsideDomainError):
        isotropy(helicoid, (0.0, 0.0, 1.0))


def test_orbit_dim_helper(helicoid, affine):
    assert isotropy(helicoid, (2.0, 1.0, 0.0)).orbit_dim == 2
    assert isotropy(affine, (3.0,)).orbit_dim == 1


# ---------------------------------------------------------------------------
# same_leaf


def _quarter(start_g, plane):
    return circle_loop_path(start_g, plane, turns=0.25, chords_per_turn=1024)


def test_same_leaf_quarter_circle(helicoid):
    w = _quarter((0.0, 0.0), (1.0, 0.0))
    a = ((0.0, 0.0), (1.0, 0.0, U))
    b = ((-1.0, 1.0), (0.0, 1.0, U * math.exp(-math.pi / 2)))
    rec = same_leaf(helicoid, a, b, w)
    assert rec.verdict == "identified"
    assert rec.residual < 1e-6
    assert rec.witness_winding == pytest.approx(0.25, abs=1e-9)


def test_same_leaf_rejects_perturbed_point(helicoid):
    w = _quarter((0.0, 0.0), (1.0, 0.0))
    a = ((0.0, 0.0), (1.0, 0.0, U))
    bad = ((-1.0, 1.0), (0.0, 1.0, U * math.exp(-math.pi / 2) * math.exp(math.pi)))
    rec = same_leaf(helicoid, a, bad, w)
    assert rec.verdict == "not_identified_by_witness"
    assert rec.residual > 1e-2


def test_same_leaf_full_loop_witness(helicoid):
    # (g, x) and (g, x') with x' = x scaled by e^{2*pi} sit on one leaf: a
    # clockwise unit loop in the group identifies them
    w = circle_loop_path((1.0, 0.0), (1.0, 0.0), turns=1.0, chords_per_turn=1024, clockwise=True)
    a = ((1.0, 0.0), (1.0, 0.0, U))
    b = ((1.0, 0.0), (1.0, 0.0, U * math.exp(2.0 * math.pi)))
    rec = same_leaf(helicoid, a, b, w)
    assert rec.verdict == "identified"
    assert rec.residual < 1e-6
    assert rec.witness_winding == pytest.approx(-1.0, abs=1e-9)


def test_same_leaf_winding_zero_witness_fails(helicoid):
    out_back = GPath(
        helicoid.group,
        (1.0, 0.0),
        [LinearSeg((1.0, 0.0), 1.0), LinearSeg((-1.0, 0.0), 1.0)],
    )
    a = ((1.0, 0.0), (1.0, 0.0, U))
    b = ((1.0, 0.0), (1.0, 0.0, U * math.exp(2.0 * math.pi)))
    rec = same_leaf(helicoid, a, b, out_back)
    assert rec.verdict == "not_identified_by_witness"
    assert rec.witness_winding == pytest.approx(0.0, abs=1e-9)


def test_same_leaf_empty_witness(helicoid):
    w = GPath(helicoid.group, (0.0, 0.0), [])
    pt = ((0.0, 0.0), (1.0, 0.0, U))
    assert same_leaf(helicoid, pt, pt, w).verdict == "identified"
    other = ((0.0, 0.0), (1.0, 0.0, U + 1.0))
    assert same_leaf(helicoid, pt, other, w).verdict == "not_identified_by_witness"
    on_axis = ((0.0, 0.0), (0.0, 0.0, U))   # outside the domain, as for any witness
    with pytest.raises(OutsideDomainError):
        same_leaf(helicoid, on_axis, on_axis, w)


def test_same_leaf_checks_witness_endpoints(helicoid):
    w = _quarter((0.0, 0.0), (1.0, 0.0))
    good_a = ((0.0, 0.0), (1.0, 0.0, U))
    good_b = ((-1.0, 1.0), (0.0, 1.0, U * math.exp(-math.pi / 2)))
    with pytest.raises(MalformedWitnessError):
        same_leaf(helicoid, ((1e-3, 0.0), (1.0, 0.0, U)), good_b, w)
    with pytest.raises(MalformedWitnessError):
        same_leaf(helicoid, good_a, ((0.0, 0.0), good_b[1]), w)


def test_same_leaf_escaping_witness(helicoid):
    w = GPath(helicoid.group, (0.0, 0.0), [LinearSeg((-1.0, 0.0), 1.0)])
    a = ((0.0, 0.0), (1.0, 0.0, U))
    b = ((-1.0, 0.0), (5.0, 5.0, 5.0))
    rec = same_leaf(helicoid, a, b, w)
    assert rec.verdict == "witness_escaped"
    assert rec.residual == math.inf
    assert rec.lift.status == ESCAPED


def test_same_leaf_symmetry(helicoid):
    w = _quarter((0.0, 0.0), (1.0, 0.0))
    a = ((0.0, 0.0), (1.0, 0.0, U))
    b = ((-1.0, 1.0), (0.0, 1.0, U * math.exp(-math.pi / 2)))
    fwd = same_leaf(helicoid, a, b, w)
    back = same_leaf(helicoid, b, a, reverse_path(w))
    assert fwd.verdict == back.verdict == "identified"
    assert back.residual < 2e-6


def test_same_leaf_transitivity(helicoid):
    w1 = _quarter((0.0, 0.0), (1.0, 0.0))
    w2 = _quarter((-1.0, 1.0), (0.0, 1.0))
    a = ((0.0, 0.0), (1.0, 0.0, U))
    b = ((-1.0, 1.0), (0.0, 1.0, U * math.exp(-math.pi / 2)))
    c = ((-2.0, 0.0), (-1.0, 0.0, U * math.exp(-math.pi)))
    assert same_leaf(helicoid, a, b, w1).verdict == "identified"
    assert same_leaf(helicoid, b, c, w2).verdict == "identified"
    joined = same_leaf(helicoid, a, c, concat_paths(w1, w2))
    assert joined.verdict == "identified"
    assert joined.residual < 2e-6


# ---------------------------------------------------------------------------
# loop_to_group


_BASIS_FRAME = ((1.0, 0.0), (0.0, 1.0))


def _circle_pts(n=64, r=1.0, z=0.0):
    th = np.linspace(0.0, 2.0 * math.pi, n + 1)
    return np.column_stack([r * np.cos(th), r * np.sin(th), np.full(n + 1, z)])


def test_loop_to_group_flat_circle(helicoid):
    pts = _circle_pts()
    hol = loop_to_group(helicoid, _BASIS_FRAME, pts, pts[0])
    assert np.max(np.abs(hol.element)) < 1e-9
    assert hol.round_trip_residual < 1e-6
    assert hol.closed
    assert hol.loop_points == 65
    assert "not decided" in hol.note


def test_loop_to_group_out_and_back(helicoid):
    pts = [(1.0, 0.0, U), (2.0, 0.0, U), (1.0, 0.0, U)]
    hol = loop_to_group(helicoid, _BASIS_FRAME, pts, pts[0])
    assert np.max(np.abs(hol.element)) < 1e-9
    assert hol.round_trip_residual < 1e-9


def test_loop_to_group_constant_loop(helicoid):
    pts = [(1.0, 0.0, U), (1.0, 0.0, U)]
    hol = loop_to_group(helicoid, _BASIS_FRAME, pts, pts[0])
    assert np.max(np.abs(hol.element)) == 0.0


def test_loop_to_group_affine_open_curve(affine):
    # the translation field alone frames the 1-d orbit, making the
    # decomposition unique
    pts = [(x,) for x in np.linspace(1.0, 2.0, 33)]
    hol = loop_to_group(affine, ((1.0, 0.0),), pts, (1.0,), closed=False)
    assert np.max(np.abs(np.asarray(hol.element) - [[1.0, 1.0], [0.0, 1.0]])) < 1e-10
    assert hol.round_trip_residual < 1e-10
    assert not hol.closed


def test_loop_to_group_exponentiates_each_sub_chord_once(affine, monkeypatch):
    # the element is the endpoint of the path the loop builds, and the
    # re-lift reads no trace, so the sub-chords' exponentials are taken once,
    # as one stacked call with a row per sub-chord
    from liecomplete.algebra import MatrixGroup

    calls = []
    expm = MatrixGroup.exp_segment
    monkeypatch.setattr(MatrixGroup, "exp_segment",
                        lambda self, X, t=1.0: calls.append(np.shape(X)) or expm(self, X, t))
    pts = [(x,) for x in np.exp(0.05 * np.sin(np.arange(65.0)))]
    hol = loop_to_group(affine, ((1.0, 0.0), (0.0, 1.0)), pts, pts[0], closed=False)
    assert hol.round_trip_residual < 1e-6
    assert calls == [(64 * 4, 2)]
    assert np.array_equal(hol.element, hol.path.endpoint())


def test_loop_to_group_td_frame_is_fourth_order(affine):
    # [T, D] = T, so the {T, D} frame's velocity does not commute with itself
    # along the walk; with the Magnus bracket term, halving the sub-chord
    # width cuts the error of the invariant a*xe - b = xs about 16-fold
    pts = [(1.0,), (1.5,), (2.2,), (3.0,)]
    errs = []
    for substeps in (2, 4, 8, 16):
        hol = loop_to_group(affine, _BASIS_FRAME, pts, pts[0], closed=False, substeps=substeps)
        (a, b), _ = hol.element
        errs.append(abs(a * 3.0 - b - 1.0))
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert all(14.0 < r < 18.0 for r in ratios), (errs, ratios)


def test_loop_to_group_frame_condition(helicoid):
    pts = _circle_pts(16)
    with pytest.raises(FrameConditionError):
        loop_to_group(helicoid, ((1.0, 0.0), (1.0, 0.0)), pts, pts[0])
    with pytest.raises(FrameConditionError):
        loop_to_group(helicoid, ((1.0,),), pts, pts[0])
    # frames that are not finite stop before the SVD, which would not converge
    for frame in (((math.nan, 0.0), (0.0, 1.0)), ((math.inf, 0.0), (0.0, 1.0))):
        with pytest.raises(FrameConditionError, match="not finite"):
            loop_to_group(helicoid, frame, pts, pts[0])


def test_loop_to_group_velocity_outside_orbit(helicoid):
    # at z = 0 both fields are horizontal, so a vertical excursion cannot be
    # decomposed in the frame
    pts = [(1.0, 0.0, 0.0), (1.0, 0.0, 0.5), (1.0, 0.0, 0.0)]
    with pytest.raises(LoopOutsideOrbitError):
        loop_to_group(helicoid, _BASIS_FRAME, pts, pts[0])


def test_loop_to_group_geometry_checks(helicoid):
    pts = _circle_pts(8)
    with pytest.raises(LoopGeometryError):
        loop_to_group(helicoid, _BASIS_FRAME, pts[:-1], pts[0])        # not closed
    with pytest.raises(LoopGeometryError):
        loop_to_group(helicoid, _BASIS_FRAME, pts, (5.0, 5.0, 0.0))    # wrong basepoint
    with pytest.raises(LoopGeometryError):
        loop_to_group(helicoid, _BASIS_FRAME, [pts[0]], pts[0])        # single point
    with pytest.raises(LoopGeometryError, match="of numbers"):
        loop_to_group(helicoid, _BASIS_FRAME, [(1.0, 0.0, 0.0), (1.0, 0.0)], pts[0])   # ragged


def test_loop_to_group_leaves_domain():
    annulus = build("example4_annulus").action
    pts = [(1.0, 0.0), (3.0, 0.0), (1.0, 0.0)]
    with pytest.raises(LoopGeometryError):
        loop_to_group(annulus, _BASIS_FRAME, pts, pts[0])


def test_loop_to_group_nan_point_leaves_domain(affine):
    pts = [(1.0,), (math.nan,), (1.0,)]
    with pytest.raises(LoopGeometryError, match="leaves the domain"):
        loop_to_group(affine, ((1.0, 0.0),), pts, pts[0])


def test_loop_to_group_substeps_validation(helicoid):
    pts = _circle_pts(8)
    with pytest.raises(ValueError):
        loop_to_group(helicoid, _BASIS_FRAME, pts, pts[0], substeps=0)


def test_loop_to_group_relift_escape_gives_inf_residual(helicoid):
    # chord through the axis: decomposition succeeds near the gap but the
    # reconstructed path's lift hits the excluded axis
    pts = [(1.0, 0.0, 0.5), (-1.0, 0.0, 0.5), (1.0, 0.0, 0.5)]
    hol = loop_to_group(helicoid, _BASIS_FRAME, pts, pts[0])
    assert hol.round_trip_residual == math.inf
