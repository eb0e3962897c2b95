"""Small arithmetic expression language for field components and domain margins.

Grammar (UTF-8 text; spaces, tabs and line breaks between tokens are ignored)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := '-'? INT ('^' exponent)?      # folds right-assoc to |k| <= 2**53
    atom     := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

``^`` binds tightest, then unary minus, then ``*`` ``/``, then ``+`` ``-``.
Exponents are restricted to integer literals so that differentiation stays
inside the language and ``0^0``-style ambiguity never arises at runtime.
Number literals must be finite.  Every operation, function call and pair of
parentheses is one level of nesting, and an expression may nest at most
``MAX_DEPTH`` (64) levels deep, so that it and its partials compile.

Functions: sin, cos, exp, log, sqrt, atan2(y, x), abs, sign.  ``sign`` is
included so the derivative of ``abs`` is expressible; ``sign(0) = 0``, which
fixes ``abs'(0) = 0``, and the sign of a NaN is NaN.

Names are bound when :func:`compile_scalars` generates code, the only
evaluator (:meth:`Expr.eval` runs it once); whether a name is a coordinate or
a model parameter is decided by the caller, not by the parser.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping, Optional, Union

from ._record import InputError, Record, floats


class ExprSyntaxError(InputError):
    """Raised on malformed input; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprNameError(InputError):
    """A free name had no binding at evaluation/compilation time."""


class ExprDomainError(ArithmeticError):
    """Evaluation left the domain of a partial function (log, sqrt, division)."""


# What generated code raises where a partial function leaves its domain (log,
# sqrt, division, a negative power of zero) or a result overflows.
EVAL_ERRORS = (ValueError, ZeroDivisionError, OverflowError)

# The deepest nesting an expression may have.  A first partial is at most
# three times as deep as its expression, and its generated code opens one
# parenthesis per level plus three more, within Python's limit of 200.
MAX_DEPTH = 64
_DEPTH_MESSAGE = f"expression nests deeper than {MAX_DEPTH} levels"

# The largest exponent magnitude: _diff's Num(float(k)) holds it exactly.
_MAX_EXPONENT = 2 ** 53
_TOWER_MESSAGE = "exponent must fold to an integer of magnitude at most 2**53"


_FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "atan2": 2,
    "abs": 1,
    "sign": 1,
}


# ---------------------------------------------------------------------------
# AST


class Num(Record):
    """A number literal."""
    __slots__ = ("value",)


class Var(Record):
    """A coordinate or parameter name."""
    __slots__ = ("name",)


class Neg(Record):
    """Unary minus."""
    __slots__ = ("arg",)


class Bin(Record):
    """A binary operation; ``op`` is one of + - * /."""
    __slots__ = ("op", "left", "right")


class Pow(Record):
    """A power with an integer exponent."""
    __slots__ = ("base", "exponent")


class Call(Record):
    """A call of a built-in function on a tuple of arguments."""
    __slots__ = ("fn", "args")


Node = Union[Num, Var, Neg, Bin, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer

# One token after optional whitespace: a number of decimal digits (an "int"
# when it has neither point nor exponent), a name of word characters, an
# operator, the end, or any other character, which is an error.  A name must
# start with a letter or "_"; the tokenizer checks that.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>\w+)|(?P<op>[-+*/^(),])|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _tokenize(src: str):
    """Return (kind, text, pos) triples; kinds: num, int, name, op, end."""
    tokens = []
    for m in _TOKEN.finditer(src):   # some group matches at every offset
        kind = m.lastgroup
        text, pos = m[kind], m.start(kind)
        if kind == "bad" or (kind == "name" and not (text[0].isalpha() or text[0] == "_")):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", pos)
        if kind == "num":
            if not math.isfinite(float(text)):
                raise ExprSyntaxError("number literal is not finite", pos)
            if text.isdecimal():
                kind = "int"
        tokens.append((kind, text, pos))
        if kind == "end":
            return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent; each rule returns ``(node, depth)``.

    A level past ``MAX_DEPTH`` is refused where it is reached: on the way
    down at the ``(``, ``-`` or function name that opens it, which keeps the
    recursion shallow, and on the way up at the operator that closes it.
    """

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.open = 0   # levels opened on the way down to the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node, _ = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return node

    @staticmethod
    def level(depth: int, pos: int) -> int:
        """The depth of a node one level above ``depth``, opened at ``pos``."""
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError(_DEPTH_MESSAGE, pos)
        return depth + 1

    def nested(self, rule, pos: int):
        """Parse ``rule`` one level down, the level opened at ``pos``."""
        self.open = self.level(self.open, pos)
        node, depth = rule()
        self.open -= 1
        return node, self.level(depth, pos)

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.unary, "*/")

    def chain(self, operand, ops: str):
        """``operand (op operand)*`` for ``op`` in ``ops``, left-associative."""
        node, depth = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in ops:
                return node, depth
            self.advance()
            right, rdepth = operand()
            node, depth = Bin(text, node, right), self.level(max(depth, rdepth), pos)

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            node, depth = self.nested(self.unary, pos)
            return Neg(node), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.exponent()), self.level(depth, pos)
        return base, depth

    def exponent(self) -> int:
        """Signed integer literals joined by '^', folded right-associatively."""
        chain = []
        while True:
            sign, (kind, text, pos) = 1, self.advance()
            if kind == "op" and text == "-":
                sign, (kind, text, pos) = -1, self.advance()
            if kind != "int":
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            try:
                chain.append((sign, int(text), pos))
            except ValueError:   # past int()'s digit limit, by leading zeros
                raise ExprSyntaxError("integer literal has too many digits", pos) from None
            if self.peek()[:2] != ("op", "^"):
                break
            self.advance()
        k = 1
        for sign, value, pos in reversed(chain):
            # decided before folding: a negative power of value != 1 is no
            # integer, and value ** k >= 2 ** 54 when value > 1 and k > 53
            if value != 1 and (k < 0 or (value > 1 and k > 53)):
                raise ExprSyntaxError(_TOWER_MESSAGE, pos)
            value **= abs(k)
            if value > _MAX_EXPONENT:
                raise ExprSyntaxError(_TOWER_MESSAGE, pos)
            k = sign * value
        return k

    def atom(self):
        kind, text, pos = self.advance()
        if kind in ("num", "int"):
            return Num(float(text)), 0
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCTION_ARITY:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.advance()
                args, depth = [], 0
                while True:
                    arg, arg_depth = self.nested(self.expr, pos)
                    args.append(arg)
                    depth = max(depth, arg_depth)
                    k2, t2, p2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.advance()
                    elif k2 == "op" and t2 == ")":
                        self.advance()
                        break
                    else:
                        raise ExprSyntaxError("expected ',' or ')'", p2)
                if len(args) != _FUNCTION_ARITY[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {_FUNCTION_ARITY[text]} argument(s), got {len(args)}",
                        pos,
                    )
                return Call(text, tuple(args)), depth
            if text in _FUNCTION_ARITY:
                raise ExprSyntaxError(f"function name {text!r} used as a variable", pos)
            return Var(text), 0
        if kind == "op" and text == "(":
            node, depth = self.nested(self.expr, pos)
            self.expect_op(")")
            return node, depth
        raise ExprSyntaxError("expected a number, name or '('", pos)


# ---------------------------------------------------------------------------
# Differentiation / printing


# Light folding keeps derivative trees readable and evaluation cheap.


def _is_const(node: Node, v: float) -> bool:
    return isinstance(node, Num) and node.value == v


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _neg(a: Node) -> Node:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return Num(0.0)
    return Bin("/", a, b)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, Bin):
        da = _diff(node.left, var)
        db = _diff(node.right, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, node.right), _mul(node.left, db))
        # quotient rule
        num = _sub(_mul(da, node.right), _mul(node.left, db))
        return _div(num, Pow(node.right, 2))
    if isinstance(node, Pow):
        k = node.exponent
        if k == 0:
            return Num(0.0)
        du = _diff(node.base, var)
        if k == 1:
            return du
        return _mul(Num(float(k)), _mul(Pow(node.base, k - 1), du))
    if isinstance(node, Call):
        u = node.args[0]
        du = _diff(u, var)
        if node.fn == "sin":
            return _mul(Call("cos", (u,)), du)
        if node.fn == "cos":
            return _neg(_mul(Call("sin", (u,)), du))
        if node.fn == "exp":
            return _mul(Call("exp", (u,)), du)
        if node.fn == "log":
            return _div(du, u)
        if node.fn == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", (u,))))
        if node.fn == "atan2":
            y, x = node.args
            dy = _diff(y, var)
            dx = _diff(x, var)
            num = _sub(_mul(x, dy), _mul(y, dx))
            den = _add(_mul(x, x), _mul(y, y))
            return _div(num, den)
        if node.fn == "abs":
            # piecewise derivative; sign(0) = 0 pins the value at the kink
            return _mul(Call("sign", (u,)), du)
        if node.fn == "sign":
            return Num(0.0)
    raise TypeError(f"not an expression node: {node!r}")


def _fmt_num(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):   # inf and nan fail the first test
        return str(int(v))
    return repr(v)


# precedence levels used by the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _to_str(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        s = _fmt_num(node.value)
        if node.value < 0:
            return f"({s})" if parent_prec > _PREC["+"] else s
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        s = "-" + _to_str(node.arg, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        left = _to_str(node.left, prec)
        # left-associative: right operand needs strictly higher precedence
        right = _to_str(node.right, prec + 1)
        s = f"{left} {node.op} {right}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(node, Pow):
        base = _to_str(node.base, _PREC["pow"] + 1)
        if node.exponent < 0:
            s = f"{base}^-{-node.exponent}"
        else:
            s = f"{base}^{node.exponent}"
        return f"({s})" if parent_prec > _PREC["pow"] else s
    if isinstance(node, Call):
        args = ", ".join(_to_str(a, 0) for a in node.args)
        return f"{node.fn}({args})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Compilation to plain Python for hot loops


def _render_py(node: Node, name_map: Mapping[str, str], temps: Mapping[str, str] = {}) -> str:
    """Fully parenthesised Python source of ``node``, with names as ``name_map`` gives them.

    A subtree whose source (with its own subtrees so replaced) is a key of
    ``temps`` is the name that ``temps`` gives it (:func:`_shared_subtrees`).
    """
    if isinstance(node, Num):
        return _py_float(node.value)
    if isinstance(node, Var):
        try:
            return name_map[node.name]
        except KeyError:
            raise ExprNameError(f"unbound name {node.name!r}") from None
    if isinstance(node, Neg):
        src = f"(-{_render_py(node.arg, name_map, temps)})"
    elif isinstance(node, Bin):
        left = _render_py(node.left, name_map, temps)
        right = _render_py(node.right, name_map, temps)
        # 1.0 * x, x * 1.0 and x / 1.0 are x for every float, NaN and -0.0 included;
        # with -1.0 they are -x but for the sign of a NaN, which no result reads
        if right in ("1.0", "(-1.0)") and node.op in "*/":
            src = left if right == "1.0" else f"(-{left})"
        elif left in ("1.0", "(-1.0)") and node.op == "*":
            src = right if left == "1.0" else f"(-{right})"
        else:
            src = f"({left} {node.op} {right})"
    elif isinstance(node, Pow):
        src = f"({_render_py(node.base, name_map, temps)} ** {node.exponent})"
    elif isinstance(node, Call):
        src = f"_{node.fn}({', '.join(_render_py(a, name_map, temps) for a in node.args)})"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return temps.get(src, src)


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return node.args
    return ()


def _shared_subtrees(nodes: Iterable[Node], name_map: Mapping[str, str]) -> tuple:
    """``(lines, temps)`` that compute once each subtree that rendering ``nodes`` repeats.

    Subtrees are the same when their sources are (:func:`_render_py`); the
    repeats are counted over all of ``nodes``, a repeat's own subtrees once.
    A repeated subtree that is not a leaf gets a name ``_t0, _t1, ...``:
    ``lines`` are the assignments ``_tK = source``, each after those of its
    own subtrees, and ``temps`` passed to :func:`_render_py` renders the
    subtree as its name.  A pure expression has the same value wherever it
    is computed.
    """
    counts: dict = {}
    order = []   # the first occurrence of each source, its own subtrees first

    def count(node):
        if isinstance(node, (Num, Var)):
            return
        key = _render_py(node, name_map)
        seen = key in counts
        counts[key] = counts.get(key, 0) + 1
        if not seen:
            for child in _children(node):
                count(child)
            order.append((key, node))

    for node in nodes:
        count(node)
    temps: dict = {}
    lines = []
    for key, node in order:
        if counts[key] > 1:
            src = _render_py(node, name_map, temps)
            temps[src] = f"_t{len(lines)}"
            lines.append(f"_t{len(lines)} = {src}")
    return lines, temps


def _py_sign(v: float) -> float:
    """0.0 at zero, NaN at NaN (whose sign bit means nothing), else +-1.0."""
    if v != v:
        return v
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


_COMPILE_GLOBALS = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_atan2": math.atan2,
    "_sign": _py_sign,
    "_abs": abs,
    "_inf": math.inf,
    "_isfinite": math.isfinite,
    "_EVAL_ERRORS": EVAL_ERRORS,
}


def compile_scalars(
    exprs: Iterable["Expr"],
    arg_names: Iterable[str],
    consts: Optional[Mapping[str, float]] = None,
) -> Callable:
    """Compile several expressions into one positional function.

    The result takes ``len(arg_names)`` floats and returns a tuple of floats,
    one per expression.  Names in ``consts`` are folded in as literals.
    Raises ``ExprNameError`` for names that are neither arguments nor consts.

    The compiled code intentionally does not guard partial functions: it
    raises one of ``EVAL_ERRORS``, which callers map to leaving the domain.
    """
    args = list(arg_names)
    name_map = _name_map(args, consts)
    bodies = [_render_py(e.node, name_map) for e in exprs]
    params = ", ".join(f"_v{i}" for i in range(len(args)))
    src = f"def _f({params}):\n    return ({', '.join(bodies)}{',' if len(bodies) == 1 else ''})"
    return _define(src)["_f"]


def _name_map(arg_names: Iterable[str], consts: Optional[Mapping[str, float]]) -> dict:
    """Argument names to ``_v0, _v1, ...``; other names in ``consts`` to literals."""
    name_map = {n: f"_v{i}" for i, n in enumerate(arg_names)}
    for k, v in (consts or {}).items():
        if k not in name_map:
            name_map[k] = _py_float(v)
    return name_map


def _py_float(v: float) -> str:
    """Source text for the float ``v``, safe as an operand of any operator."""
    v = float(v)
    if not math.isfinite(v):
        return f"float({repr(v)!r})"
    return f"({v!r})" if math.copysign(1.0, v) < 0.0 else repr(v)


def _define(src: str, extra: Optional[Mapping[str, object]] = None) -> dict:
    """Execute generated source with the expression globals and ``extra``; return its namespace."""
    ns = dict(_COMPILE_GLOBALS, **(extra or {}))
    exec(compile(src, "<generated>", "exec"), ns)
    return ns


def _tuple(items) -> str:
    """``a, b, ..., ``: the items with trailing commas, a target or a tuple of any length."""
    return "".join(f"{v}, " for v in items)


def _names(prefix: str, n: int) -> str:
    """``p0, p1, ..., p{n-1}, ``."""
    return _tuple(f"{prefix}{i}" for i in range(n))


def checked(fn: Callable, what: str, error: type) -> Callable:
    """``fn`` as a list-in evaluator that raises ``error`` naming ``what`` and the point.

    ``error`` is raised where ``fn(*vals)`` raises one of ``EVAL_ERRORS`` or
    returns a value that is not finite; otherwise the tuple is returned.
    """
    def evaluate(vals):
        try:
            out = fn(*vals)
        except EVAL_ERRORS as e:
            raise error(f"{what} cannot be evaluated at {vals}: {e}") from None
        if not all(map(math.isfinite, out)):
            raise error(f"{what} are not finite at {vals}")
        return out
    return evaluate


# ---------------------------------------------------------------------------
# Public wrapper


class Expr(Record):
    """Parsed expression: evaluate, differentiate, print; equal by its tree."""

    __slots__ = ("node",)

    def eval(self, env: Mapping[str, float]) -> float:
        """Value with every name bound by ``env`` to a number: the generated code, run once."""
        fn = checked(compile_scalars([self], env), f"values of {self}", ExprDomainError)
        return fn(floats(env.values(), InputError, f"the names of {self} must be bound to numbers"))[0]

    def diff(self, var: str) -> "Expr":
        return Expr(_diff(self.node, var))

    def __str__(self) -> str:
        return _to_str(self.node)

    def __repr__(self) -> str:
        return f"Expr({str(self)!r})"


def parse(src: str) -> Expr:
    """Parse ``src`` into an :class:`Expr`; raises :class:`ExprSyntaxError`."""
    return Expr(_Parser(src).parse())
