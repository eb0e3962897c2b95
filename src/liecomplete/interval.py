"""Interval enclosures of expressions, and the domain margin's lower bound over boxes.

An expression tree renders as source that computes an enclosure ``(lo, hi)``
of the float its generated code (``expr._render_py``) computes anywhere in a
box of argument values: where each operand lies in its interval, so does
the result of each operation (Moore, Kearfott & Cloud, *Introduction to
Interval Analysis*, SIAM 2009).  Arithmetic bounds are rounded outward by an
ulp; the results of libm (exp, log, sqrt and integer powers) are widened by
at least 3 ulps, since they are within an ulp or so of exact and need not be
monotone to the last bit; a square is computed as a square, so ``x^2`` and
``x*x`` over [-1, 1] are [0, 1] and not [-1, 1]; and sin, cos and atan2 are
bounded by their ranges.  Where the generated code might raise somewhere in
the box, or a bound is not finite, the enclosure raises one of
``EVAL_ERRORS``, and the margin's bound is ``-inf``: no proof.

The margin that ``GAction`` generates imports this module on the first call
of its ``lower``, so a process that never needs a bound does not compile it.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from .expr import Bin, Call, Neg, Node, Num, Pow, Var, _define, _py_float, _py_sign
from .manifold import _least_lines

__all__ = ["margin_lower"]

_INF = math.inf
_LIBM_REL = 2.0 ** -50
_LIBM_ABS = 2.0 ** -1070
_OPS = {"+": "_iadd", "-": "_isub", "*": "_imul", "/": "_idiv"}


def _render_interval(node: Node, pairs: Mapping[str, str]) -> str:
    """Source of an enclosure ``(lo, hi)`` of ``node``; ``pairs`` maps names to the source of theirs."""
    if isinstance(node, Num):
        v = _py_float(node.value)
        return f"({v}, {v})"
    if isinstance(node, Var):   # the margin itself compiled, so every name is bound
        return pairs[node.name]
    if isinstance(node, Neg):
        return f"_ineg({_render_interval(node.arg, pairs)})"
    if isinstance(node, Pow):
        return f"_ipow({_render_interval(node.base, pairs)}, {node.exponent})"
    if isinstance(node, Bin):
        left = _render_interval(node.left, pairs)
        if node.op == "*" and node.left == node.right:
            return f"_ipow({left}, 2)"
        return f"{_OPS[node.op]}({left}, {_render_interval(node.right, pairs)})"
    if isinstance(node, Call):
        return f"_i{node.fn}({', '.join(_render_interval(a, pairs) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


def _outward(lo: float, hi: float) -> tuple:
    """``(lo, hi)`` an ulp wider on each side; ``OverflowError`` unless finite."""
    if not -_INF < lo <= hi < _INF:
        raise OverflowError("enclosure is not finite")
    return math.nextafter(lo, -_INF), math.nextafter(hi, _INF)


def _libm(lo: float, hi: float) -> tuple:
    """Bounds of libm results, widened; ``OverflowError`` unless finite."""
    lo -= abs(lo) * _LIBM_REL + _LIBM_ABS
    hi += abs(hi) * _LIBM_REL + _LIBM_ABS
    if not -_INF < lo <= hi < _INF:
        raise OverflowError("enclosure is not finite")
    return lo, hi


def _iadd(x, y):
    return _outward(x[0] + y[0], x[1] + y[1])


def _isub(x, y):
    return _outward(x[0] - y[1], x[1] - y[0])


def _imul(x, y):
    (a, b), (c, d) = x, y
    p = (a * c, a * d, b * c, b * d)
    return _outward(min(p), max(p))


def _idiv(x, y):
    (a, b), (c, d) = x, y
    if c <= 0.0 <= d:
        raise ZeroDivisionError("the divisor's enclosure holds 0")
    p = (a / c, a / d, b / c, b / d)
    return _outward(min(p), max(p))


def _ipow(x, k: int):
    """``x ** k`` is monotone on an interval without 0; an even power about 0 starts at 0."""
    a, b = x
    p, q = a ** k, b ** k
    if a <= 0.0 <= b and k:
        if k < 0:
            raise ZeroDivisionError("a negative power of an enclosure that holds 0")
        if not k % 2:
            return _libm(0.0, p if p > q else q)
    return _libm(p, q) if p <= q else _libm(q, p)


def _iabs(x):
    a, b = x
    if a >= 0.0:
        return a, b
    if b <= 0.0:
        return -b, -a
    return 0.0, max(-a, b)


def _iunit(x):
    """sin and cos of any enclosure."""
    return -1.0, 1.0


_HELPERS = {
    "_iadd": _iadd,
    "_isub": _isub,
    "_imul": _imul,
    "_idiv": _idiv,
    "_ineg": lambda x: (-x[1], -x[0]),
    "_ipow": _ipow,
    # exp, log and sqrt increase, and raise where the generated code might
    "_iexp": lambda x: _libm(math.exp(x[0]), math.exp(x[1])),
    "_ilog": lambda x: _libm(math.log(x[0]), math.log(x[1])),
    "_isqrt": lambda x: _libm(math.sqrt(x[0]), math.sqrt(x[1])),
    "_iabs": _iabs,
    "_isign": lambda x: (_py_sign(x[0]), _py_sign(x[1])),
    "_isin": _iunit,
    "_icos": _iunit,
    "_iatan2": lambda y, x: _libm(-math.pi, math.pi),
}


def margin_lower(domain, names: Mapping[str, str]) -> Callable:
    """Generate ``lower(lo, hi)``, at most the domain margin at every p with ``lo <= p <= hi``.

    The margin is the one ``manifold._compile_margin`` generates with the
    name map ``names``: the least of ``domain.terms``, here the least of
    their enclosures' lower ends, by the same
    :func:`liecomplete.manifold._least_lines`.  The bound is ``-inf`` unless
    every ``lo[j] <= hi[j]`` is finite, and where a term might raise in the
    box or a bound is not finite.  A box wall's term ``x - lo`` or ``hi - x``
    is monotone in its coordinate, so its bound is at the box side, rounded
    down, unless that distance overflows.
    """
    n = domain.dim
    pairs = {k: v if k in domain.coords else f"({v}, {v})" for k, v in names.items()}
    least = _least_lines(domain.terms, lambda node: f"{_render_interval(node, pairs)}[0]", "m")
    lines = [
        "def _lower(lo, hi):",
        f"    {''.join(f'_l{j}, ' for j in range(n))}= lo",
        f"    {''.join(f'_h{j}, ' for j in range(n))}= hi",
        f"    if not ({' and '.join(f'-_inf < _l{j} <= _h{j} < _inf' for j in range(n))}):",
        "        return -_inf",
        f"    {''.join(f'_v{j}, ' for j in range(n))}= {''.join(f'(_l{j}, _h{j}), ' for j in range(n))}",
        *("    " + line for line in least),
        "    return m",
    ]
    return _define("\n".join(lines), _HELPERS)["_lower"]
