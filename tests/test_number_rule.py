"""The rule that turns a caller's values into floats is said once, in ``_record``.

``float()`` refuses a value that is not a number with a ``TypeError``, a
``ValueError`` or an ``OverflowError``; ``_record`` catches them as its one
tuple ``NOT_A_NUMBER`` and raises the calling module's input error.  Every
other ``except`` clause under ``src/`` that names one of the three is on the
list below with the reason it is no conversion, so a new hand-rolled
conversion block fails here.
"""

import ast
import pathlib

import pytest

import liecomplete
from liecomplete._record import NOT_A_NUMBER

SRC = pathlib.Path(liecomplete.__file__).parent
REFUSALS = {"TypeError", "ValueError", "OverflowError"}

# (file, function, names the clause catches) of clauses that convert no caller's number
ALLOWED = {
    ("manifold.py", "__init__", ("TypeError", "ValueError")):
        "Domain unpacks each box entry as a (lo, hi) pair",
    ("lift.py", "word", ("TypeError", "ValueError")):
        "GPath.word unpacks each stage as a (vector, time) pair",
    ("expr.py", "exponent", ("ValueError",)):
        "int() refuses an exponent literal past its digit limit",
}


def refusal_handlers(path: pathlib.Path) -> list:
    """``(file, function, caught names)`` per ``except`` clause in ``path`` naming one of ``REFUSALS``."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                caught = tuple(n.id for n in ast.walk(child.type) if isinstance(n, ast.Name))
                if REFUSALS.intersection(caught):
                    out.append((path.name, function, caught))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return out


def test_no_conversion_catches_float_refusals_but_the_shared_tuple():
    found = [h for path in sorted(SRC.rglob("*.py")) for h in refusal_handlers(path)]
    assert [h for h in found if h not in ALLOWED] == []
    assert set(ALLOWED) <= set(found)   # an entry no longer needed is taken off the list


@pytest.mark.parametrize("value", [None, "x", 10 ** 400], ids=["None", "string", "10**400"])
def test_the_shared_tuple_is_what_float_raises(value):
    with pytest.raises(NOT_A_NUMBER):
        float(value)
