"""Every public entry point raises its module's input error for a value that is not a number.

The values are those ``float()`` refuses: an int past the float range, a
string that is no number, and None; where an entry point takes a vector, a
vector one coordinate short as well.  Counts (``max_steps``, ``sample_count``,
``substeps``) must be ints of at least 1, not bools or floats.
"""

import pytest

from liecomplete._record import InputError
from liecomplete.algebra import AbelianGroup, AlgebraError, LieAlgebra, MatrixGroup
from liecomplete.completion import (
    FrameConditionError, LoopGeometryError, isotropy, loop_to_group, same_leaf,
)
from liecomplete.expr import parse
from liecomplete.flow import IntegratorConfig
from liecomplete.lift import ExpSeg, GPath, LinearSeg, PathError, lift_path
from liecomplete.manifold import (
    ActionError, Domain, DomainError, GAction, OutsideDomainError, SamplingError, check_homomorphism,
)
from liecomplete.scenarios import ScenarioError, build, circle_loop_path, leaf_invariant

HELICOID = build("example6_helicoid").action
AFFINE = build("affine_line").action
PLANE = AbelianGroup(2)
MATRIX = AFFINE.group
EMPTY = GPath(PLANE, (0.0, 0.0), [])
SHORT = "short"   # the vector one coordinate short
NOT_NUMBERS = {"10**400": 10 ** 400, "string": "x", "None": None}


def vec(b, *rest) -> tuple:
    """The vector ``(b, *rest)``, or ``rest`` alone for ``SHORT``."""
    return rest if b is SHORT else (b, *rest)


# (entry point, its error, a call with the bad coordinate b of one vector argument)
VECTORS = [
    ("LieAlgebra", AlgebraError, lambda b: LieAlgebra([[vec(b)]])),
    ("AbelianGroup.element", AlgebraError, lambda b: PLANE.element(vec(b, 0.0))),
    ("AbelianGroup.mul", AlgebraError, lambda b: PLANE.mul(vec(b, 0.0), (0.0, 0.0))),
    ("AbelianGroup.mul-stacks", AlgebraError, lambda b: PLANE.mul([vec(b, 0.0)], [(0.0, 0.0)])),
    ("AbelianGroup.exp_segment", AlgebraError, lambda b: PLANE.exp_segment(vec(b, 0.0))),
    ("AbelianGroup.exp_segment-stack", AlgebraError, lambda b: PLANE.exp_segment([vec(b, 0.0)])),
    ("AbelianGroup.exp_segment-times", AlgebraError,
     lambda b: PLANE.exp_segment([(1.0, 0.0)] * 2, vec(b, 1.0))),
    ("MatrixGroup", AlgebraError, lambda b: MatrixGroup([[vec(b, 1.0), (0.0, 0.0)]])),
    ("MatrixGroup.element", AlgebraError, lambda b: MATRIX.element([vec(b, 0.0), (0.0, 1.0)])),
    ("MatrixGroup.exp_segment", AlgebraError, lambda b: MATRIX.exp_segment(vec(b, 0.0))),
    ("MatrixGroup.exp_segment-times", AlgebraError,
     lambda b: MATRIX.exp_segment([(1.0, 0.0)] * 2, vec(b, 1.0))),
    ("GPath-start", PathError, lambda b: GPath(PLANE, vec(b, 0.0), [])),
    ("GPath-LinearSeg", PathError, lambda b: GPath(PLANE, (0.0, 0.0), [LinearSeg(vec(b, 0.0))])),
    ("GPath-ExpSeg", PathError, lambda b: GPath(MATRIX, MATRIX.identity(), [ExpSeg(vec(b, 0.0))])),
    ("GPath.word", PathError, lambda b: GPath.word(PLANE, [(vec(b, 0.0), 1.0)])),
    ("lift_path-x0", OutsideDomainError, lambda b: lift_path(HELICOID, EMPTY, vec(b, 0.0, 1.0))),
    ("GAction.margin", OutsideDomainError, lambda b: HELICOID.margin(vec(b, 0.0, 1.0))),
    ("GAction.field_matrix", OutsideDomainError, lambda b: HELICOID.field_matrix(vec(b, 0.0, 1.0))),
    ("GAction.zeta-X", ActionError, lambda b: HELICOID.zeta(vec(b, 0.0), (1.0, 0.0, 1.0))),
    ("GAction.zeta-p", OutsideDomainError, lambda b: HELICOID.zeta((1.0, 0.0), vec(b, 0.0, 1.0))),
    ("GAction.rhs", ActionError, lambda b: HELICOID.rhs(vec(b, 0.0))),
    ("GAction.require_inside", OutsideDomainError, lambda b: HELICOID.require_inside(vec(b, 0.0, 1.0))),
    ("isotropy", OutsideDomainError, lambda b: isotropy(HELICOID, vec(b, 0.0, 1.0))),
    ("same_leaf-g", AlgebraError, lambda b: same_leaf(
        HELICOID, (vec(b, 0.0), (1.0, 0.0, 1.0)), ((0.0, 0.0), (1.0, 0.0, 1.0)), EMPTY)),
    ("same_leaf-x", OutsideDomainError, lambda b: same_leaf(
        HELICOID, ((0.0, 0.0), (1.0, 0.0, 1.0)), ((0.0, 0.0), vec(b, 0.0, 1.0)), EMPTY)),
    ("loop_to_group-frame", FrameConditionError,
     lambda b: loop_to_group(AFFINE, [vec(b, 0.0)], [[1.0], [2.0]], [1.0], closed=False)),
    ("loop_to_group-points", LoopGeometryError,
     lambda b: loop_to_group(AFFINE, [[1.0, 0.0]], [[1.0], vec(b)], [1.0], closed=False)),
    ("loop_to_group-x0", LoopGeometryError,
     lambda b: loop_to_group(AFFINE, [[1.0, 0.0]], [[1.0], [2.0]], vec(b), closed=False)),
    ("leaf_invariant-g", ScenarioError, lambda b: leaf_invariant(1.0, vec(b, 0.0), (1.0, 0.0, 1.0))),
    ("leaf_invariant-x", ScenarioError, lambda b: leaf_invariant(1.0, (0.0, 0.0), vec(b, 0.0, 1.0))),
    ("circle_loop_path-start", PathError,
     lambda b: circle_loop_path(vec(b, 0.0), (1.0, 0.0), chords_per_turn=4)),
    ("circle_loop_path-x0_plane", ScenarioError, lambda b: circle_loop_path((0.0, 0.0), vec(b, 0.0))),
]

# (entry point, its error, a call with the bad scalar b)
SCALARS = [
    ("AbelianGroup.exp_segment-time", AlgebraError, lambda b: PLANE.exp_segment((1.0, 0.0), b)),
    ("MatrixGroup.exp_segment-time", AlgebraError, lambda b: MATRIX.exp_segment((1.0, 0.0), b)),
    ("IntegratorConfig-rel_tol", InputError, lambda b: IntegratorConfig(rel_tol=b)),
    ("IntegratorConfig-abs_tol", InputError, lambda b: IntegratorConfig(abs_tol=b)),
    ("GPath-duration", PathError, lambda b: GPath(PLANE, (0.0, 0.0), [LinearSeg((1.0, 0.0), b)])),
    ("GPath.word-time", PathError, lambda b: GPath.word(PLANE, [((1.0, 0.0), b)])),
    ("GAction-params", ActionError,
     lambda b: GAction(AbelianGroup(1), Domain(("x",)), [[parse("a")]], params={"a": b})),
    ("Domain-box", DomainError, lambda b: Domain(("x",), box=((0.0, b),))),
    ("build-params", ScenarioError, lambda b: build("example6_helicoid", {"alpha": b})),
    ("leaf_invariant-alpha", ScenarioError, lambda b: leaf_invariant(b, (0.0, 0.0), (1.0, 0.0, 1.0))),
    ("circle_loop_path-turns", ScenarioError,
     lambda b: circle_loop_path((0.0, 0.0), (1.0, 0.0), turns=b)),
    ("circle_loop_path-chords_per_turn", ScenarioError,
     lambda b: circle_loop_path((0.0, 0.0), (1.0, 0.0), chords_per_turn=b)),
]

OPEN_SIDE = ("Domain-box", "None")   # None is an open box side, not a bad value

PROBES = [pytest.param(error, call, value, id=f"{name}-{vid}")
          for table, values in ((VECTORS, {**NOT_NUMBERS, "short": SHORT}), (SCALARS, NOT_NUMBERS))
          for name, error, call in table
          for vid, value in values.items()
          if (name, vid) != OPEN_SIDE]


@pytest.mark.parametrize("error, call, value", PROBES)
def test_a_value_that_is_not_a_number_raises_the_module_input_error(error, call, value):
    with pytest.raises(error):
        call(value)


# (count, its error, a call with the count n)
COUNTS = [
    ("max_steps", InputError, lambda n: IntegratorConfig(max_steps=n)),
    ("sample_count", SamplingError, lambda n: check_homomorphism(HELICOID, sample_count=n)),
    ("substeps", InputError,
     lambda n: loop_to_group(AFFINE, [[1.0, 0.0]], [[1.0], [2.0]], [1.0], closed=False, substeps=n)),
]


@pytest.mark.parametrize("name, error, call", COUNTS, ids=[c[0] for c in COUNTS])
@pytest.mark.parametrize("n", [0, -1, 2.5, 4.0, True, "x", None])
def test_a_count_is_an_int_of_at_least_one(name, error, call, n):
    with pytest.raises(error, match=f"{name} must be a positive integer"):
        call(n)
