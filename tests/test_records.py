"""The contract of the immutable records: read-only, equal and hashed by value, per class."""

import numpy as np
import pytest

from liecomplete.algebra import AbelianGroup, LieAlgebra, MatrixGroup
from liecomplete.expr import Bin, Call, Neg, Num, Pow, Var, parse
from liecomplete.manifold import Domain
from liecomplete.scenarios import LeafInvariant

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
    assert a == b and not a != b
    assert hash(a) == hash(b)
    twin = other(*values())
    assert a != twin and twin != a


def test_matrix_groups_compare_their_bases_by_value():
    assert MatrixGroup(_AFFINE_BASIS) != MatrixGroup(2 * _AFFINE_BASIS)
