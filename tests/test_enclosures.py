"""Lower bounds of the domain margin over boxes, and hulls of a step's interpolant.

``GAction``'s generated margin carries ``lower(lo, hi)``, a bound built from
interval enclosures of the same margin terms (expressions and box walls), and
the flow's ``_hull`` bounds each component of the floats the step's Hermite
interpolant computes over a bracket.  The margin scan skips a dip search on
their word alone, so both must hold for the computed floats at every point,
not only in exact arithmetic; they are checked at dense points of random
boxes and brackets, and must prove something often enough not to pass
vacuously.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from liecomplete.algebra import AbelianGroup
from liecomplete.expr import MAX_DEPTH, parse
from liecomplete.flow import _SCAN, _golden_min, _hermite, _hull
from liecomplete.manifold import Domain, GAction
from liecomplete.scenarios import build
from test_cli import _VALID_TERMS


def _grid(lo, hi, k):
    """k points per axis from lo to hi, corners included, each inside [lo, hi]."""
    axes = [sorted({min(max(a + (b - a) * (i / (k - 1)), a), b) for i in range(k)})
            for a, b in zip(lo, hi)]
    return list(itertools.product(*axes))


def _check_bound(action, lo, hi, k):
    """Assert ``lower(lo, hi)`` is at most the margin at a k-per-axis grid; return the bound."""
    bound = action._margin.lower(lo, hi)
    for p in _grid(lo, hi, k):
        assert bound <= action._margin(list(p)), (lo, hi, p)
    return bound


def _box(center, width):
    """The box about ``center`` with these half-widths, as (lo, hi) lists."""
    return [c - w for c, w in zip(center, width)], [c + w for c, w in zip(center, width)]


half_width = st.one_of(st.just(0.0), st.floats(-12.0, 0.5).map(lambda e: 10.0 ** e))


# ---------------------------------------------------------------------------
# the built-in margins


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0), z=st.floats(-2.0, 2.0),
       w=st.lists(half_width, min_size=3, max_size=3))
def test_helicoid_bound_is_below_the_margin(x, y, z, w):
    _check_bound(build("example6_helicoid").action, *_box((x, y, z), w), 7)


@settings(max_examples=150, deadline=None)
@given(r=st.floats(0.3, 2.2), theta=st.floats(-7.0, 7.0), w=st.lists(half_width, min_size=2, max_size=2))
def test_annulus_bound_is_below_its_box_walls(r, theta, w):
    _check_bound(build("example4_annulus").action, *_box((r, theta), w), 9)


@settings(max_examples=40, deadline=None)
@given(p=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3), w=st.lists(half_width, min_size=3, max_size=3))
def test_margins_without_terms_bound_nothing_away(p, w):
    for name, params in (("translation_rn", {"n": 3}), ("affine_line", {})):
        action = build(name, params).action
        n = action.dim_manifold
        assert _check_bound(action, *_box(p[:n], w[:n]), 3) == math.inf


def test_the_bounds_are_tight_where_the_box_is_small():
    helicoid = build("example6_helicoid").action
    annulus = build("example4_annulus").action
    # x^2 + y^2 over [0.6, 0.6 + 1e-9] x [0.8, 0.8 + 1e-9]: within ulps of 1
    assert 1.0 - 1e-12 < helicoid._margin.lower([0.6, 0.8, 1.0], [0.6 + 1e-9, 0.8 + 1e-9, 1.0]) <= 1.0
    # the nearest wall of r in [0.5, 2] is 0.25 away, of theta in [-2 pi, 2 pi] further
    assert 0.25 - 1e-15 < annulus._margin.lower([0.75, 0.0], [1.0, 1.0]) <= 0.25


# ---------------------------------------------------------------------------
# expressions: the action-file fuzz terms, every function, squares and failures


_FUNCTION_TERMS = [
    "exp(x)", "exp(800*y)", "abs(y - 1)", "sign(x)", "sin(x) + 2", "cos(y*x)", "atan2(y, x) + 4",
    "x*x", "(x - y)^2", "x^3", "y^-1", "x^0", "1e200*x*x", "-(x/y)",
]
_TERMS = st.sampled_from(_VALID_TERMS + _FUNCTION_TERMS)
_EXCLUSIONS = st.one_of(
    _TERMS,
    st.tuples(_TERMS, st.sampled_from(["+", "-", "*", "/"]), _TERMS).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
    st.tuples(st.sampled_from(["sqrt", "log", "exp", "abs"]), _TERMS).map(lambda t: f"{t[0]}({t[1]})"),
)


def test_bounds_of_drawn_exclusions_are_below_the_margin():
    proved = []

    @settings(max_examples=400, deadline=None)
    @given(exclusions=st.lists(_EXCLUSIONS, min_size=1, max_size=2),
           x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
           w=st.lists(half_width, min_size=2, max_size=2), walls=st.booleans())
    def check(exclusions, x, y, w, walls):
        box = ((-2.5, 2.5), None) if walls else None
        domain = Domain(("x", "y"), box=box, margins=[parse(e) for e in exclusions])
        action = GAction(AbelianGroup(1), domain, [[parse("1"), parse("0")]])
        proved.append(_check_bound(action, *_box((x, y), w), 9) > 0.0)

    check()
    assert sum(proved) >= 40, sum(proved)


_WIDE_BOXES = [([-3.0, 0.5], [-1.0, 2.0]), ([-1.0, -2.0], [2.0, 3.0]), ([0.5, 0.25], [3.0, 1.0]),
               ([-3.0, -3.0], [3.0, 3.0])]


def test_each_operation_and_function_bound_holds_on_wide_boxes():
    # a bound that fails at an interior extremum or a far corner shows on a fine grid
    texts = ["x + y", "x - y", "x * y", "x / y", "-x", "x^3", "x^2", "x*x", "x^-1", "x^-2", "abs(x)",
             "sign(x)", "exp(x)", "log(x)", "sqrt(x)", "sin(x)", "cos(x)", "atan2(y, x)"]
    finite = 0
    for text in texts:
        action = GAction(AbelianGroup(1), Domain(("x", "y"), margins=[parse(text)]),
                         [[parse("1"), parse("0")]])
        for lo, hi in _WIDE_BOXES:
            finite += _check_bound(action, lo, hi, 41) > -math.inf
    assert finite >= 50, finite


def test_exclusions_at_the_depth_bound_get_a_bound():
    # one helper call per level: the generated source nests as deep as the margin's
    for text in ["/".join(["x"] * (MAX_DEPTH + 1)), "atan2(x, " * MAX_DEPTH + "y" + ")" * MAX_DEPTH,
                 "cos(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "-" * MAX_DEPTH + "x"]:
        action = GAction(AbelianGroup(1), Domain(("x", "y"), margins=[parse(text)]),
                         [[parse("1"), parse("0")]])
        assert -math.inf < _check_bound(action, [1.0, 1.0], [2.0, 2.0], 5), text[:20]


def test_a_square_is_never_negative():
    # as x * x, [-1, 1] * [-1, 1] would be [-1, 1]
    for text in ("x^2 + y^2", "x*x + y*y"):
        action = GAction(AbelianGroup(1), Domain(("x", "y"), margins=[parse(text)]),
                         [[parse("1"), parse("0")]])
        assert -1e-300 < action._margin.lower([-1.0, -1.0], [1.0, 1.0]) <= 0.0


def test_a_term_that_might_raise_or_overflow_proves_nothing():
    # each raises or overflows somewhere in [-1, 1e60] x [-1, 1]
    for text in ("log(x)", "sqrt(x)", "1/x", "x^-2", "exp(x)", "y/(x - 2)", "1e200*x*x"):
        action = GAction(AbelianGroup(1), Domain(("x", "y"), margins=[parse(text)]),
                         [[parse("1"), parse("0")]])
        assert action._margin.lower([-1.0, -1.0], [1e60, 1.0]) == -math.inf, text
    # a box that is not finite, or whose sides are out of order, proves nothing either
    helicoid = build("example6_helicoid").action._margin
    for lo, hi in (([1.0, 1.0, 0.0], [math.inf, 2.0, 0.0]), ([1.0, math.nan, 0.0], [2.0, 2.0, 0.0]),
                   ([2.0, 1.0, 0.0], [1.0, 2.0, 0.0])):
        assert helicoid.lower(lo, hi) == -math.inf


# ---------------------------------------------------------------------------
# the hull of the interpolant over a bracket


component = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6), st.floats(-1e-6, 1e-6))
fraction = st.floats(0.0, 1.0)
brackets = st.one_of(
    st.integers(0, 4).map(lambda i: ((0.0, *_SCAN)[max(0, i - 1)], (0.0, *_SCAN)[min(4, i + 1)])),
    st.tuples(fraction, fraction).map(sorted),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), h=st.floats(1e-10, 2.0), bracket=brackets)
def test_hull_holds_the_computed_interpolant_on_the_bracket(data, n, h, bracket):
    y0, f0, y1, f1 = (data.draw(st.lists(component, min_size=n, max_size=n)) for _ in range(4))
    lo, hi = bracket
    interp = _hermite(n)(y0, f0, y1, f1, h)
    los, his = _hull(y0, f0, y1, f1, h, lo, hi)
    samples = [min(lo + (hi - lo) * i / 32, hi) for i in range(33)] + [hi]
    # the golden-section dip search samples the bracket only, and its samples are checked too
    _golden_min(lambda s: samples.append(s) or interp(s)[0], lo, hi)
    for s in samples:
        assert lo <= s <= hi
        for i, v in enumerate(interp(s)):
            assert los[i] <= v <= his[i], (s, i)


def test_hull_of_a_line_is_its_ends():
    # a cubic that is a line: the restriction's control points are its values at lo and hi
    y0, y1, h = [1.0, -2.0], [3.0, 2.0], 0.5
    f = [(b - a) / h for a, b in zip(y0, y1)]
    los, his = _hull(y0, f, y1, f, h, 0.25, 0.75)
    assert all(abs(a - b) < 1e-12 for a, b in zip(los, [1.5, -1.0]))
    assert all(abs(a - b) < 1e-12 for a, b in zip(his, [2.5, 1.0]))
