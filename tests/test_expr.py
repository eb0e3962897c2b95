"""Expression language: parsing, evaluation, differentiation, codegen."""

import inspect
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from liecomplete.expr import (
    MAX_DEPTH,
    Expr,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Num,
    Pow,
    _define,
    _name_map,
    _render_py,
    _tokenize,
    compile_scalars,
    parse,
)
from liecomplete.scenarios import build


# ---------------------------------------------------------------------------
# parsing


def _assert_free_names(src, names):
    """The generator binds exactly ``names``: all of them compile, and leaving any out is refused."""
    e = parse(src)
    assert compile_scalars([e], sorted(names))(*[1.0] * len(names)) == (e.eval(dict.fromkeys(names, 1.0)),)
    for name in names:
        with pytest.raises(ExprNameError, match=f"unbound name {name!r}"):
            compile_scalars([e], sorted(names - {name}))


def test_free_names_simple():
    _assert_free_names("x + 2*y", {"x", "y"})


def test_free_names_field_component():
    _assert_free_names("alpha*y*z/(x^2+y^2)", {"alpha", "x", "y", "z"})


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x + ")
    assert exc.value.position == 4


def test_syntax_error_unexpected_char():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x $ y")
    assert exc.value.position == 2


def test_unknown_function():
    with pytest.raises(ExprSyntaxError, match="foo"):
        parse("foo(x)")


def test_function_name_as_variable_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("sin + 1")


def test_function_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse("atan2(x)")
    with pytest.raises(ExprSyntaxError):
        parse("sin(x, y)")
    with pytest.raises(ExprSyntaxError, match=r"expected ',' or '\)' \(at offset 8\)") as exc:
        parse("atan2(x y)")
    assert exc.value.position == 8


def test_repr_shows_the_expression_text():
    assert repr(parse("x^2 + sin(y)")) == "Expr('x^2 + sin(y)')"


def _reference_tokenize(src: str):
    """The character-by-character scanner the tokenizer's regular expression replaced."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            is_int = True
            if j < n and src[j] == ".":
                is_int = False
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    is_int = False
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            if not math.isfinite(float(src[i:j])):   # a bare ValueError for '²'
                raise ExprSyntaxError("number literal is not finite", i)
            tokens.append(("int" if is_int else "num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _scan(tokenize, src):
    """Tokens, the syntax error's message, or the type of any other exception."""
    try:
        return tokenize(src)
    except ExprSyntaxError as e:
        return str(e)
    except Exception as e:
        return type(e)


# digits that are decimal in other scripts (float reads them), digits and
# numbers that are not (it cannot), letters, word and other characters
_TOKEN_TEXT = st.text(st.sampled_from(list("0123456789.eE+-*/^(),x_ \t\r\n$") + [
    "\u0661", "\u00b2", "\u00bd", "\u216b", "\u03b8", "\u00e9", "\u3007", "\u00a0",
]))


@settings(max_examples=500, deadline=None)
@given(src=st.one_of(_TOKEN_TEXT, st.text()))
def test_tokenizer_matches_the_reference_scanner(src):
    want, got = _scan(_reference_tokenize, src), _scan(_tokenize, src)
    if isinstance(want, type):   # the reference crashed, as on "2\u00b2"
        assert isinstance(got, (str, list)), (src, got)
    else:
        assert got == want, src


@settings(max_examples=500, deadline=None)
@given(src=st.one_of(_TOKEN_TEXT, st.text()))
def test_parse_raises_only_syntax_errors(src):
    try:
        assert isinstance(parse(src), Expr)
    except ExprSyntaxError:
        pass


def test_digits_that_are_not_decimal_are_syntax_errors():
    # '²' is a digit to str.isdigit but no number to float
    for src, offset in [("x^\u00b2", 2), ("2\u00b2", 1), ("\u00b2", 0), ("x + \u00bd", 4)]:
        with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
            parse(src)
        assert exc.value.position == offset, src
    assert parse("\u0661\u0662 * x") == parse("12 * x")   # decimal digits of any script
    # an integer with more digits than int() converts, all but one leading zeros
    with pytest.raises(ExprSyntaxError, match="too many digits"):
        parse("x^" + "0" * 5000 + "2")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x^y")
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")
    # negative and right-associative chains are folded at parse time
    assert parse("x^-2").eval({"x": 2.0}) == 0.25
    assert parse("2^3^2").eval({}) == 512.0


def test_number_literals_must_be_finite():
    for src, offset in [("1e999*x", 0), ("x + 1" + "0" * 400, 4), ("2^1e999", 2)]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(src)
        assert exc.value.position == offset


def test_exponent_towers_are_bounded_before_they_fold():
    # 2^53 is the largest exponent the derivative's Num(float(k)) holds exactly
    assert parse("x^2^53").node == Pow(parse("x").node, 2 ** 53)
    assert parse("x^-9007199254740992").node.exponent == -(2 ** 53)
    assert parse("x^1^-5").node.exponent == 1
    assert parse("x^0^-0").node.exponent == 1
    for src, offset in [
        ("x^2^2^2^2^2", 2),          # 2^65536, refused without computing it
        ("x^10^10^10", 2),           # a 10^10-digit fold
        ("x^2^54", 2),
        ("x^3^34", 2),               # 3^34 > 2^53 although 34 <= 53
        ("x^9007199254740993", 2),
        ("x^-9007199254740993", 3),
        ("x^2^-1", 2),               # not an integer
        ("x^0^-1", 2),               # not a number
    ]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(src)
        assert exc.value.position == offset, src


def test_nesting_is_refused_where_it_passes_the_bound():
    for src, offset in [
        ("+".join(["x"] * 250), 129),          # the 65th '+' of a left-nested sum
        ("-" * 300 + "x", 64),                 # the 65th unary minus
        ("(" * 400 + "x" + ")" * 400, 64),     # the 65th parenthesis
        ("sin(" * 65 + "x" + ")" * 65, 256),   # the 65th call
    ]:
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH}") as exc:
            parse(src)
        assert exc.value.position == offset, src[:20]
    # an exponent tower is folded without recursion, so its length is free
    assert parse("x^" + "1^" * 2000 + "1").node.exponent == 1


@pytest.mark.parametrize("src", [
    "/".join(["x"] * (MAX_DEPTH + 1)),            # a quotient's partial is 3x as deep
    "atan2(x, " * MAX_DEPTH + "y" + ")" * MAX_DEPTH,
    "cos(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    "-" * MAX_DEPTH + "x",
    "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
])
def test_expressions_at_the_depth_bound_and_their_partials_compile(src):
    e = parse(src)
    fn = compile_scalars([e, e.diff("x"), e.diff("y")], ("x", "y"))
    assert len(fn(0.75, 0.5)) == 3


def test_precedence():
    assert parse("2 + 3 * 4").eval({}) == 14.0
    assert parse("2 * 3 ^ 2").eval({}) == 18.0
    assert parse("-3^2").eval({}) == -9.0       # ^ binds tighter than unary -
    assert parse("(2 + 3) * 4").eval({}) == 20.0
    assert parse("2 - 3 - 4").eval({}) == -5.0  # left associative


# ---------------------------------------------------------------------------
# evaluation


def test_eval_pythagoras():
    assert parse("x^2+y^2").eval({"x": 3.0, "y": 4.0}) == 25.0


def test_eval_field_component_hand_value():
    # hand substitution: -1*1*2/(1+0) = -2
    e = parse("-1*x*z/(x^2+y^2)")
    assert e.eval({"x": 1.0, "z": 2.0, "y": 0.0}) == -2.0


def test_eval_atan2():
    assert parse("atan2(y,x)").eval({"x": 0.0, "y": 1.0}) == pytest.approx(math.pi / 2)


def test_eval_unbound_name():
    with pytest.raises(ExprNameError):
        parse("x + q").eval({"x": 1.0})


def test_eval_domain_errors():
    with pytest.raises(ExprDomainError):
        parse("1/x").eval({"x": 0.0})
    with pytest.raises(ExprDomainError):
        parse("log(x)").eval({"x": -1.0})
    with pytest.raises(ExprDomainError):
        parse("sqrt(x)").eval({"x": -4.0})
    with pytest.raises(ExprDomainError):
        parse("x^-1").eval({"x": 0.0})


def test_eval_sign_and_abs():
    assert parse("sign(x)").eval({"x": -3.0}) == -1.0
    assert parse("sign(x)").eval({"x": 0.0}) == 0.0
    assert parse("abs(x)").eval({"x": -3.0}) == 3.0


def test_sign_of_nan_is_nan():
    # a NaN's sign bit is no sign: inf - inf has it set, and must not read as -1
    with pytest.raises(ExprDomainError):
        parse("sign(x)").eval({"x": math.nan})
    with pytest.raises(ExprDomainError):
        parse("sign(x*x*x*x - x*x*x*x)").eval({"x": 1e100})


# ---------------------------------------------------------------------------
# differentiation (frozen hand values first, then properties)


def test_diff_polynomial():
    d = parse("x^2+y^2").diff("x")
    for x in (-2.0, -0.5, 0.0, 1.0, 3.5):
        assert d.eval({"x": x, "y": 7.0}) == pytest.approx(2 * x, abs=1e-12)


def test_diff_quotient_hand_value():
    # d/dx [y*z/(x^2+y^2)] carries a factor y in the numerator, so it
    # vanishes on the plane y = 0
    d = parse("y*z/(x^2+y^2)").diff("x")
    assert d.eval({"x": 1.0, "y": 0.0, "z": 5.0}) == 0.0


def test_diff_quotient_generic_point():
    # hand value at (2, 1, 3): d/dx [z*y/(x^2+y^2)] = -2*x*y*z/(x^2+y^2)^2
    d = parse("y*z/(x^2+y^2)").diff("x")
    assert d.eval({"x": 2.0, "y": 1.0, "z": 3.0}) == pytest.approx(-12.0 / 25.0, rel=1e-14)


def test_diff_atan2():
    # d/dx atan2(y, x) = -y/(x^2+y^2)
    d = parse("atan2(y,x)").diff("x")
    assert d.eval({"x": 1.0, "y": 2.0}) == pytest.approx(-2.0 / 5.0, rel=1e-14)


def test_diff_abs_at_kink_is_zero():
    d = parse("abs(x)").diff("x")
    assert d.eval({"x": 0.0}) == 0.0
    assert d.eval({"x": -2.0}) == -1.0


def test_diff_of_constant_in_missing_var():
    d = parse("x^2").diff("q")
    assert d.eval({"x": 3.0}) == 0.0


@pytest.mark.parametrize("src, closed", [
    ("exp(x)", lambda x, y: math.exp(x)),
    ("exp(2*x*y)", lambda x, y: 2.0 * y * math.exp(2.0 * x * y)),
    ("sign(x)", lambda x, y: 0.0),
    ("sign(x*y) * x", lambda x, y: math.copysign(1.0, x * y)),
    ("x^0", lambda x, y: 0.0),
    ("(x*y)^0 * x", lambda x, y: 1.0),
    ("x^1", lambda x, y: 1.0),
    ("(x*y)^1", lambda x, y: y),
], ids=["exp", "exp-chain", "sign", "sign-product", "x^0", "product^0", "x^1", "product^1"])
def test_diff_rules_of_exp_sign_and_the_powers_0_and_1(src, closed):
    e, h = parse(src), 1e-6
    d = e.diff("x")
    for x, y in ((0.7, 1.3), (-1.1, 0.4), (0.25, -2.0)):   # away from sign's jump
        assert d.eval({"x": x, "y": y}) == pytest.approx(closed(x, y), rel=1e-14, abs=1e-300)
        fd = (e.eval({"x": x + h, "y": y}) - e.eval({"x": x - h, "y": y})) / (2.0 * h)
        assert d.eval({"x": x, "y": y}) == pytest.approx(fd, rel=1e-7, abs=1e-9)


# random smooth expression generator: arithmetic over {sin, cos, x, y, consts}
_smooth_leaf = st.sampled_from(["x", "y", "0.5", "2", "1.25"])


def _smooth_exprs(depth):
    if depth == 0:
        return _smooth_leaf
    sub = _smooth_exprs(depth - 1)
    return st.one_of(
        _smooth_leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        ),
        sub.map(lambda s: f"sin({s})"),
        sub.map(lambda s: f"cos({s})"),
    )


_points = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


@settings(max_examples=60, deadline=None)
@given(src=_smooth_exprs(3), pt=_points)
def test_diff_matches_finite_differences(src, pt):
    e = parse(src)
    d = e.diff("x")
    h = 1e-5
    x, y = pt
    fd = (e.eval({"x": x + h, "y": y}) - e.eval({"x": x - h, "y": y})) / (2 * h)
    assert d.eval({"x": x, "y": y}) == pytest.approx(fd, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(src1=_smooth_exprs(2), src2=_smooth_exprs(2), pt=_points)
def test_diff_is_linear(src1, src2, pt):
    a, b = 3.0, -0.5
    combined = parse(f"3*({src1}) - 0.5*({src2})")
    d_comb = combined.diff("x")
    d1 = parse(src1).diff("x")
    d2 = parse(src2).diff("x")
    env = {"x": pt[0], "y": pt[1]}
    assert d_comb.eval(env) == pytest.approx(
        a * d1.eval(env) + b * d2.eval(env), abs=1e-9
    )


# ---------------------------------------------------------------------------
# printing round trip


@settings(max_examples=60, deadline=None)
@given(src=_smooth_exprs(3), pt=_points)
def test_parse_print_round_trip(src, pt):
    e = parse(src)
    e2 = parse(str(e))
    env = {"x": pt[0], "y": pt[1]}
    assert e2.eval(env) == pytest.approx(e.eval(env), rel=1e-12, abs=1e-12)


def test_print_preserves_precedence():
    for src, env, want in [
        ("(x+1)*(x-1)", {"x": 3.0}, 8.0),
        ("-(x+1)^2", {"x": 2.0}, -9.0),
        ("x/(y*z)", {"x": 12.0, "y": 2.0, "z": 3.0}, 2.0),
        ("x-(y-z)", {"x": 1.0, "y": 2.0, "z": 3.0}, 2.0),
    ]:
        e = parse(src)
        assert parse(str(e)).eval(env) == pytest.approx(want, rel=1e-12)
    # a folded constant that overflowed prints as inf
    assert str(parse("x*1e308*10/100").diff("x")) == "inf / 100^2"


# ---------------------------------------------------------------------------
# compilation


def test_one_exec_runs_all_generated_code():
    # a second code generator would bring its own exec
    src = pathlib.Path(inspect.getfile(_define)).parent
    calls = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines() if "exec(" in line]
    assert len(calls) == 1 and calls[0][0] == "expr.py", calls
    assert calls[0][1] in inspect.getsource(_define)


def test_compile_matches_eval():
    exprs = [parse("alpha*y*z/(x^2+y^2)"), parse("-x*y + sin(z)")]
    fn = compile_scalars(exprs, ("x", "y", "z"), {"alpha": 0.75})
    for x, y, z in [(1.0, 2.0, 3.0), (-0.5, 0.1, 0.0), (2.0, -1.0, 4.0)]:
        assert fn(x, y, z) == (0.75 * y * z / (x ** 2 + y ** 2), -x * y + math.sin(z))


def test_compile_folds_any_float_param():
    # a negative constant must stay one operand: -1.5 ** 2 would be -(1.5 ** 2)
    fn = compile_scalars([parse("a^2 - x"), parse("b*x")], ("x",), {"a": -1.5, "b": math.inf})
    assert fn(1.0) == ((-1.5) ** 2 - 1.0, math.inf)


def test_compile_renders_any_float_literal():
    # literals the parser never makes, but derivatives and callers can
    assert compile_scalars([Expr(Pow(Num(-2.0), 2))], ())() == (4.0,)
    assert compile_scalars([Expr(Num(math.inf)), Expr(Num(-math.inf))], ())() == (
        math.inf, -math.inf)


def test_factors_of_one_are_not_rendered():
    # 1.0 * x, x * 1.0 and x / 1.0 are x for every float, so they are not computed;
    # with -1.0 they are -x, whose bits are those of the product for every float
    # but NaN, whose sign no result reads
    action = build("example6_helicoid", {"alpha": 1.0}).action
    names = _name_map(action.domain.coords, action.params)
    rendered = [_render_py(e.node, names) for row in action.fields for e in row]
    assert rendered[2] == "((_v1 * _v2) / ((_v0 ** 2) + (_v1 ** 2)))"
    assert rendered[5] == "(((-_v0) * _v2) / ((_v0 ** 2) + (_v1 ** 2)))"
    assert not any("1.0 *" in r or "* 1.0" in r or "/ 1.0" in r
                   or "1.0) *" in r or "* (-1.0" in r or "/ (-1.0" in r for r in rendered), rendered
    assert _render_py(parse("1/x").node, {"x": "_v0"}) == "(1.0 / _v0)"
    assert _render_py(parse("-1/x").node, {"x": "_v0"}) == "((-1.0) / _v0)"
    fn = compile_scalars([parse(src) for src in ("1*x", "x*1", "x/1", "a*x", "x/a")], ("x",), {"a": 1.0})
    neg = compile_scalars([parse(src) for src in ("(-1)*x", "x*(-1)", "x/(-1)", "b*x", "x/b")], ("x",),
                          {"b": -1.0})
    for x in (math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, -3.5):
        assert [v.hex() for v in fn(x)] == [x.hex()] * 5
        assert [v.hex() for v in neg(x)] == [(-x).hex()] * 5


def test_eval_runs_the_generated_code():
    assert Expr(Pow(Num(-2.0), 2)).eval({}) == 4.0
    with pytest.raises(ExprDomainError):
        Expr(Num(math.inf)).eval({})
    with pytest.raises(ExprDomainError):
        parse("exp(x)").eval({"x": 1000.0})      # OverflowError
    with pytest.raises(ExprDomainError):
        parse("x^2").eval({"x": 1e200})          # OverflowError in the power
    with pytest.raises(ExprDomainError):
        parse("x*x").eval({"x": 1e200})          # inf without an exception


def test_compile_missing_binding():
    with pytest.raises(ExprNameError):
        compile_scalars([parse("x + beta")], ("x",), {})


def test_expr_equality_and_hash():
    assert parse("x + y") == parse("x+y")
    assert parse("x + y") != parse("y + x")
    assert hash(parse("2*x")) == hash(parse("2 * x"))
