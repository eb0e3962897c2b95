"""The contract of the immutable records: read-only, equal and hashed by value, per class."""

import numpy as np
import pytest

from liecomplete.algebra import AbelianGroup, LieAlgebra, MatrixGroup
from liecomplete.completion import IsotropyReport, isotropy
from liecomplete.expr import Bin, Call, Neg, Num, Pow, Var, parse
from liecomplete.lift import ExpSeg, GPath, lift_path
from liecomplete.manifold import Domain
from liecomplete.scenarios import LeafInvariant, build, circle_loop_path

_AFFINE_BASIS = np.array([[[0.0, 1.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]])

# (record class, a function giving fresh equal field values, a field, another
# record class that takes the same values)
CASES = [
    (LieAlgebra, lambda: ([[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]], ("T", "D")), "c", Pow),
    (AbelianGroup, lambda: (2, ("X", "Y")), "dim", Call),
    (MatrixGroup, lambda: (_AFFINE_BASIS.copy(), ("T", "D")), "basis", Pow),
    (Num, lambda: (1.5,), "value", Var),
    (Var, lambda: ("x",), "name", Neg),
    (Neg, lambda: (Var("x"),), "arg", Num),
    (Bin, lambda: ("+", Var("x"), Num(1.0)), "left", LeafInvariant),
    (Pow, lambda: (Var("x"), 3), "exponent", Call),
    (Call, lambda: ("atan2", (Var("y"), Var("x"))), "args", Pow),
    (Domain, lambda: (["x", "y"], [(0.0, 1.0), None], [parse("x - y")]), "box", Bin),
    (LeafInvariant, lambda: ((0.5, -1.0), "plus", 0.25), "value", Bin),
]


@pytest.mark.parametrize("cls, values, field, other", CASES, ids=[c[0].__name__ for c in CASES])
def test_records_are_read_only_values(cls, values, field, other):
    a, b = cls(*values()), cls(*values())
    for name in (field, "kind", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(TypeError):
        cls(*values(), None)   # a field too many
    assert a == b and not a != b
    assert hash(a) == hash(b)
    twin = other(*values())
    assert a != twin and twin != a


def test_matrix_groups_compare_their_bases_by_value():
    assert MatrixGroup(_AFFINE_BASIS) != MatrixGroup(2 * _AFFINE_BASIS)


@pytest.mark.parametrize("name, x", [("example6_helicoid", (1.0, 0.5, 0.2)), ("affine_line", (1.5,))])
def test_isotropy_reports_compare_and_hash_their_nullspace_by_value(name, x):
    action = build(name).action
    a, b = isotropy(action, x), isotropy(action, x)
    assert a.nullspace is not b.nullspace
    assert a == b and hash(a) == hash(b)
    wider = IsotropyReport(a.point, a.singular_values, np.zeros((1, action.dim_algebra + 1)),
                           a.orbit_dim, a.cutoff)
    assert a != wider and wider != a


def test_matrix_model_lifts_compare_their_group_endpoints_by_value():
    affine = build("affine_line").action
    path = GPath(affine.group, np.eye(2), [ExpSeg((0.3, 0.2), 1.0)])
    a, b = lift_path(affine, path, (1.0,)), lift_path(affine, path, (1.0,))
    assert a.endpoint_g is not b.endpoint_g
    assert a == b
    assert a != lift_path(affine, GPath(affine.group, 2.0 * np.eye(2), path.segments), (1.0,))


def test_numpy_scalars_still_compare_as_numbers():
    a, b = LeafInvariant((0.5, -1.0), "plus", np.float64(0.25)), LeafInvariant((0.5, -1.0), "plus", 0.25)
    assert a == b and hash(a) == hash(b)


def test_lifts_hash_by_value():
    action = build("example6_helicoid").action
    path = circle_loop_path((0.0, 0.0), (1.0, 0.0), chords_per_turn=16)
    a, b = lift_path(action, path, (1.0, 0.0, 0.5)), lift_path(action, path, (1.0, 0.0, 0.5))
    assert a.rows is not b.rows
    assert a == b and hash(a) == hash(b)
