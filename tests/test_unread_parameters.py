"""Every function parameter under ``src/`` is read by its function's body.

A parameter that nothing reads is dead weight at every call site.  The few
that exist only so that a function fits an interface are listed here.
"""

import ast
import pathlib

import liecomplete

SRC = pathlib.Path(liecomplete.__file__).parent

# (file, function, parameter) that an interface requires but the body has no use for
INTERFACE_ONLY = {
    ("_record.py", "__setattr__", "value"),     # object.__setattr__(self, name, value)
    ("interval.py", "_iunit", "x"),             # an enclosure of sin or cos of any argument
    ("interval.py", "<lambda>", "y"),           # _iatan2(y, x): a bound of atan2 anywhere
    ("interval.py", "<lambda>", "x"),
    ("scenarios.py", "_build_affine_line", "params"),   # every builder takes its params
}


def unread_parameters(path: pathlib.Path) -> set:
    """``(file, function, parameter)`` for each parameter in ``path`` that its body never loads."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out |= {(path.name, name, p) for p in params if p not in read and p not in ("self", "cls")}
    return out


def test_every_parameter_is_read():
    found = set().union(*map(unread_parameters, sorted(SRC.rglob("*.py"))))
    assert found - INTERFACE_ONLY == set()
    assert INTERFACE_ONLY <= found   # an entry no longer needed is taken off the list

