"""Every function parameter under ``src/`` is read by its function's body, and every default is set.

A parameter that nothing reads is dead weight at every call site.  The few
that exist only so that a function fits an interface are listed here.  A
defaulted parameter of a module- or class-level function that no call in
``src/``, ``tests/`` or ``perfbench/`` passes is a constant in disguise.
"""

import ast
import math
import pathlib

import liecomplete

SRC = pathlib.Path(liecomplete.__file__).parent
TESTS = pathlib.Path(__file__).parent
CALLERS = (SRC, TESTS, TESTS.parent / "perfbench")

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



def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _callee(node: ast.expr):
    """The name a call is matched by: a bare name, or an attribute's last part."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def defaulted_parameters(path: pathlib.Path) -> list:
    """``(file, function, parameter, callee, position)`` per defaulted parameter of a top or class function.

    ``callee`` is the name calls use (the class's for ``__init__``), and
    ``position`` the index of a positional parameter in such a call (one
    fewer in a method, for ``self`` or ``cls``), or None for a keyword-only one.
    """
    tree = _tree(path)
    out = []
    scopes = [(tree, None)] + [(n, n.name) for n in tree.body if isinstance(n, ast.ClassDef)]
    for scope, cls in scopes:
        for fn in scope.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            static = any(_callee(d) == "staticmethod" for d in fn.decorator_list)
            shift = 1 if cls and not static else 0
            callee = cls if fn.name == "__init__" else fn.name
            positional = [*a.posonlyargs, *a.args]
            first = len(positional) - len(a.defaults)
            out += [(path.name, fn.name, p.arg, callee, i - shift)
                    for i, p in enumerate(positional) if i >= first]
            out += [(path.name, fn.name, p.arg, callee, None)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def calls(path: pathlib.Path):
    """Yield ``(callee, count, keywords)`` per call in ``path``: positional arguments and keyword names.

    A ``*`` argument makes the count unbounded, and a ``**`` one puts None
    among the keywords; a function handed to ``functools.partial`` counts as
    called with both.
    """
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            name = _callee(node.func)
            if name == "partial" and node.args:
                yield _callee(node.args[0]), math.inf, {None}
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def test_every_default_is_set_by_some_call():
    given = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for name, count, keywords in calls(path):
                given.setdefault(name, []).append((count, keywords))
    unset = [(file, fn, parameter)
             for path in sorted(SRC.rglob("*.py"))
             for file, fn, parameter, callee, position in defaulted_parameters(path)
             if not any(parameter in keywords or None in keywords
                        or (position is not None and position < count)
                        for count, keywords in given.get(callee, ()))]
    assert unset == []
