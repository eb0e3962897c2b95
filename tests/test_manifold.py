"""Domains, actions, fundamental fields, and the bracket homomorphism check."""

import math

import numpy as np
import pytest

from liecomplete import interval
from liecomplete.algebra import AbelianGroup
from liecomplete.expr import Expr, parse
from liecomplete.manifold import (
    ActionError,
    Domain,
    DomainError,
    GAction,
    OutsideDomainError,
    SamplingError,
    SAMPLING_MARGIN,
    check_homomorphism,
    sample_points,
)
from liecomplete.scenarios import build


@pytest.fixture
def helicoid():
    return build("example6_helicoid", {"alpha": 1.0}).action


def flipped_helicoid():
    """Helicoid fields with the sign of the second field's z-component flipped.

    The fields no longer commute: the bracket's z-component works out to
    2*z*(y^2 - x^2)/(x^2+y^2)^2 by hand, so the residual vanishes on |x|=|y|
    but equals 2 at (1, 0, 1).
    """
    return GAction(
        AbelianGroup(2, ("X", "Y")),
        Domain(("x", "y", "z"), margins=(parse("x^2 + y^2"),)),
        [
            [parse("1"), parse("0"), parse("y*z/(x^2+y^2)")],
            [parse("0"), parse("1"), parse("x*z/(x^2+y^2)")],
        ],
    )


# ---------------------------------------------------------------------------
# zeta


def test_zeta_first_generator(helicoid):
    # y = 0 kills the z-term
    for u in (0.5, 2.0, -1.0):
        assert np.allclose(helicoid.zeta((1.0, 0.0), (1.0, 0.0, u)), (1.0, 0.0, 0.0))


def test_zeta_second_generator(helicoid):
    for u in (0.5, 2.0):
        assert np.allclose(helicoid.zeta((0.0, 1.0), (1.0, 0.0, u)), (0.0, 1.0, -u))


def test_zeta_is_linear(helicoid):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, 2)
        p = (rng.uniform(0.5, 2), rng.uniform(-2, 2), rng.uniform(-1, 1))
        # zeta returns a list of floats
        lhs = np.array(helicoid.zeta((a, b), p))
        rhs = a * np.array(helicoid.zeta((1.0, 0.0), p)) + b * np.array(helicoid.zeta((0.0, 1.0), p))
        assert np.max(np.abs(lhs - rhs)) < 1e-15 * max(1.0, np.max(np.abs(rhs)))


def test_zeta_outside_domain_raises(helicoid):
    with pytest.raises(OutsideDomainError):
        helicoid.zeta((1.0, 0.0), (0.0, 0.0, 1.0))


def test_zeta_and_rhs_take_d_coefficients(helicoid):
    for X in ((1.0,), (1.0, 0.0, 0.0)):
        with pytest.raises(ActionError, match="d-vector"):
            helicoid.zeta(X, (1.0, 0.0, 1.0))
        with pytest.raises(ActionError, match="d-vector"):
            helicoid.rhs(X)
    for X in (("a", 1.0), (None, 1.0), (10 ** 400, 1.0)):
        with pytest.raises(ActionError, match="d-vector"):
            helicoid.zeta(X, (1.0, 0.0, 1.0))
        with pytest.raises(ActionError, match="d-vector"):
            helicoid.rhs(X)


def test_require_inside_refuses_a_coordinate_that_is_not_a_number(helicoid):
    for p in ((1.0, "a", 0.0), (1.0, None, 0.0), (1.0, 10 ** 400, 0.0), (1.0, 0.0), 5.0):
        with pytest.raises(OutsideDomainError, match="not a list of numbers"):
            helicoid.require_inside(p)


# ---------------------------------------------------------------------------
# domain membership and margins


def test_margin_is_squared_axis_distance(helicoid):
    assert helicoid.margin((1.0, 0.0, 5.0)) == pytest.approx(1.0)
    assert helicoid.margin((0.0, 0.0, 1.0)) == 0.0
    assert helicoid.contains((1.0, 0.0, 0.0))
    assert not helicoid.contains((0.0, 0.0, 0.0))


def test_box_margins():
    annulus = build("example4_annulus").action
    # defaults r in (0.5, 2), theta in (-2pi, 2pi): nearest bound at r
    assert annulus.margin((1.0, 0.0)) == pytest.approx(0.5)
    assert annulus.margin((1.9, 0.0)) == pytest.approx(0.1)
    assert not annulus.contains((0.4, 0.0))
    assert not annulus.contains((1.0, 7.0))


@pytest.mark.parametrize("coords, box, message", [
    ((), None, "non-empty and distinct"),
    (("x", "x"), None, "non-empty and distinct"),
    (("x", "y"), ((0.0, 1.0),), "one \\(lo, hi\\) pair per coordinate"),
    (("x",), ((1.0, 1.0),), "lo < hi"),
    (("x",), ((2.0, 1.0),), "lo < hi"),
    (("x",), ((0.0, 1.0, 2.0),), "\\(lo, hi\\) pairs"),
    (("x",), (1.0,), "\\(lo, hi\\) pairs"),
    (("x",), ((math.nan, 1.0),), "numbers or None"),
    (("x",), (("a", None),), "numbers or None"),
    (("x",), ((math.inf, None),), "lo < hi"),
], ids=["empty", "repeated", "box-length", "lo-equals-hi", "lo-above-hi", "three-numbers",
        "not-a-pair", "nan-side", "string-side", "open-lo-above-hi"])
def test_malformed_domains_are_domain_errors(coords, box, message):
    with pytest.raises(DomainError, match=message):
        Domain(coords, box=box)


def test_an_open_side_has_one_form():
    # no box, a None entry, a None side and an infinite side all store (-inf, inf) sides
    forms = [((None, 1.0), None), ((-math.inf, 1.0), (None, None)), ((-math.inf, 1.0), (-math.inf, math.inf))]
    domains = [Domain(("x", "y"), box=box) for box in forms]
    assert all(d == domains[0] for d in domains)
    assert domains[0].box == ((-math.inf, 1.0), (-math.inf, math.inf))
    assert Domain(("x",)).box == ((-math.inf, math.inf),)
    assert {tuple(str(Expr(t)) for t in d.terms) for d in domains} == {("1 - x",)}
    # [d/dx, x*y d/dy] = y d/dy is not zero; open sides are sampled over +-2, however written
    fields = [[parse("1"), parse("0")], [parse("0"), parse("x*y")]]
    residuals = {check_homomorphism(GAction(AbelianGroup(2), d, fields), 50) for d in domains}
    assert len(residuals) == 1 and 1.0 < residuals.pop() < 2.0


def test_margins_and_fields_must_be_expressions():
    with pytest.raises(DomainError, match="expressions"):
        Domain(("x",), margins=("x",))
    with pytest.raises(ActionError, match="expressions"):
        GAction(AbelianGroup(1), Domain(("x",)), [["x"]])


def test_box_walls_are_margin_terms():
    # the margin expressions first, then x - lo or hi - x per finite box side
    domain = Domain(("x", "y"), box=((0.0, None), (-1.0, 2.0)), margins=(parse("x*y"),))
    assert [str(Expr(t)) for t in domain.terms] == ["x * y", "x - 0", "y - (-1)", "2 - y"]
    assert Domain(("x",)).terms == []
    # a side at -inf or inf bounds nothing, and would leave the margin's lower bound no proof
    unbounded = Domain(("x",), box=((-math.inf, 1.0),))
    assert [str(Expr(t)) for t in unbounded.terms] == ["1 - x"]
    action = GAction(AbelianGroup(1), unbounded, [[parse("1")]])
    assert action._margin.lower([0.0], [0.5]) == math.nextafter(0.5, 0.0)


def test_margin_bound_is_built_once_on_first_call(monkeypatch):
    # a caller may hold the stand-in: its later calls must not build the bound again
    built, real = [], interval.margin_lower

    def margin_lower(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(interval, "margin_lower", margin_lower)
    action = build("example6_helicoid").action
    held = action._margin.lower
    box = ([0.6, 0.8, 1.0], [0.7, 0.9, 1.0])
    assert held(*box) == held(*box) > 0.0
    assert len(built) == 1
    assert action._margin.lower is built[0] is not held


@pytest.mark.parametrize("name, p", [
    ("example4_annulus", (math.nan, math.nan)),
    ("example4_annulus", (1.0, math.nan)),
    ("example6_helicoid", (math.inf, 0.0, 1.0)),
    ("example6_helicoid", (1.0, 0.5, math.nan)),
])
def test_non_finite_points_are_outside(name, p):
    # the generated margin skips a NaN (every comparison with it fails) and can
    # pass an inf (x^2 + y^2 is inf), so the public margin checks the point itself
    action = build(name).action
    assert action.margin(p) == -math.inf
    assert not action.contains(p)
    with pytest.raises(OutsideDomainError):
        action.require_inside(p)


def test_domain_requires_known_names():
    # fields and margins name the coordinates and the parameters, nothing else
    e = parse("alpha*y*z/(x^2+y^2)")
    xyz = Domain(("x", "y", "z"))
    assert GAction(AbelianGroup(1), xyz, [[e, e, e]], {"alpha": 0.5}).fields == ((e, e, e),)
    for domain, field, params in [
        (Domain(("x",)), "x + stray", None),
        (Domain(("x",)), "x + 2*y", None),
        (xyz, "alpha*y*z/(x^2+y^2)", {"beta": 0.5}),
        (Domain(("x",), margins=[parse("x - beta")]), "x", {"alpha": 0.5}),
    ]:
        with pytest.raises(ActionError, match="unbound name"):
            GAction(AbelianGroup(1), domain, [[parse(field)] * domain.dim], params)


def test_a_parameter_may_not_share_a_coordinate_name():
    # the expressions would read the coordinate and ignore the parameter
    x = Domain(("x",))
    with pytest.raises(ActionError, match="parameter 'x' is also a coordinate name"):
        GAction(AbelianGroup(1), x, [[parse("x")]], {"x": 2.0})
    assert GAction(AbelianGroup(1), x, [[parse("a*x")]], {"a": 2.0}).params == {"a": 2.0}


def test_field_grid_shape_checked():
    with pytest.raises(ActionError):
        GAction(
            AbelianGroup(2),
            Domain(("x", "y")),
            [[parse("1"), parse("0")]],  # one row for a 2-dim algebra
        )


# ---------------------------------------------------------------------------
# homomorphism check


def test_helicoid_commutes(helicoid):
    assert check_homomorphism(helicoid, sample_count=200, seed=0) < 1e-8


def test_translation_residual_zero():
    action = build("translation_rn", {"n": 2}).action
    assert check_homomorphism(action, sample_count=100, seed=0) == 0.0


def test_flipped_sign_residual_at_hand_point():
    """Brute-force bracket of the corrupted fields at a single point."""
    action = flipped_helicoid()
    # point (1, 0, 1): formula gives |2*1*(0-1)/1| = 2
    pts = np.array([[1.0, 0.0, 1.0]])
    residual = _residual_at_points(action, pts)
    assert residual == pytest.approx(2.0, rel=1e-12)
    # the formula vanishes identically on |x| = |y|
    assert _residual_at_points(action, np.array([[1.0, 1.0, 1.0]])) < 1e-14


def _residual_at_points(action, pts):
    partials = action._partial_fn()
    d, n = action.dim_algebra, action.dim_manifold
    worst = 0.0
    for p in pts:
        vals = [float(v) for v in p]
        F = action.field_matrix(vals)
        flat = partials(vals)   # d(field_i^k)/dx_l at flat[(i * n + k) * n + l]
        dF = [[flat[(i * n + k) * n:(i * n + k + 1) * n] for k in range(n)] for i in range(d)]
        sq = 0.0
        for k in range(n):
            lie = sum(
                F[0][l] * dF[1][k][l] - F[1][l] * dF[0][k][l] for l in range(n)
            )
            sq += lie * lie
        worst = max(worst, math.sqrt(sq))
    return worst


def test_flipped_sign_fails_sampled_check():
    assert check_homomorphism(flipped_helicoid(), sample_count=100, seed=0) > 0.4


def _planar(fields, box=None):
    return GAction(AbelianGroup(2), Domain(("x", "y"), box=box),
                   [[parse(e) for e in row] for row in fields])


def test_non_finite_fields_and_partials_are_action_errors():
    # inf * 0 is NaN without an exception
    nan = _planar([["1e308*1e308*0*y", "0"], ["0", "1"]])
    with pytest.raises(ActionError, match=r"fields are not finite at \[1.0, 2.0\]"):
        nan.field_matrix((1.0, 2.0))
    with pytest.raises(ActionError, match="fields are not finite"):
        check_homomorphism(nan, sample_count=5)
    # below x = 0.5 the field is finite, but its partial in x is 1e308*2 = inf
    steep = _planar([["x*1e308*2/100", "0"], ["0", "1"]], box=((0.0, 0.5), (0.0, 0.5)))
    assert np.isfinite(steep.field_matrix((0.4, 0.4))).all()
    with pytest.raises(ActionError, match="field partials are not finite"):
        check_homomorphism(steep, sample_count=5)


def test_check_deterministic(helicoid):
    a = check_homomorphism(helicoid, sample_count=50, seed=7)
    b = check_homomorphism(helicoid, sample_count=50, seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# sampling


def test_sample_points_respect_margin(helicoid):
    pts = sample_points(helicoid, 50, seed=1)
    assert len(pts) == 50 and all(len(p) == 3 for p in pts)
    assert all(helicoid.margin(p) > SAMPLING_MARGIN for p in pts)


def test_sampling_failure_on_empty_domain():
    action = GAction(
        AbelianGroup(1),
        Domain(("x",), box=((0.0, 1.0),), margins=(parse("0 - 1"),)),
        [[parse("1")]],
    )
    with pytest.raises(SamplingError):
        sample_points(action, 10, seed=0)


@pytest.mark.parametrize("count", [0, -1])
def test_check_homomorphism_needs_a_sample(helicoid, count):
    # a residual over no points would be a vacuous pass
    with pytest.raises(SamplingError):
        check_homomorphism(helicoid, sample_count=count)


def test_rhs_closure_matches_zeta(helicoid):
    rhs = helicoid.rhs((0.3, -0.8))
    p = [1.2, 0.4, 0.9]
    assert np.allclose(rhs(p), helicoid.zeta((0.3, -0.8), p))
