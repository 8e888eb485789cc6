import random

import pytest
from hypothesis import given, settings

from lievessiot.errors import (DivisionByZeroFunction, ExprSyntaxError,
                               LimitExceeded, RaggedRows)
from lievessiot.parsing import (format_canonical, format_gaussian,
                                format_matrix, format_poly, format_ratfunc,
                                parse_gaussian, parse_matrix, parse_ratfunc)
from lievessiot.ratfunc import RF_ONE, RF_T, RatFunc
from lievessiot.scalars import GaussianRational, gq

from support import rand_gauss, rand_poly_matrix, rand_ratfunc, ratfuncs


def test_basic_expressions():
    assert parse_ratfunc("t^2 + 1") == RF_T * RF_T + RF_ONE
    assert parse_ratfunc("(1 + i) * t") == RatFunc.const(gq(1, 1)) * RF_T
    assert parse_ratfunc("2/4") == RatFunc.const(gq("1/2"))
    assert parse_ratfunc("1/(t - 1) + 1/(t + 1)") == \
        RatFunc.const(2) * RF_T / (RF_T * RF_T - RF_ONE)


def test_power_binds_tighter_than_unary_minus():
    assert parse_ratfunc("-t^2") == -(RF_T * RF_T)
    assert parse_ratfunc("(-t)^2") == RF_T * RF_T
    assert parse_ratfunc("-2^2") == RatFunc.const(-4)


def test_precedence_and_associativity():
    assert parse_ratfunc("1 - 2 - 3") == RatFunc.const(-4)
    assert parse_ratfunc("2 + 3 * t") == RatFunc.const(2) + RatFunc.const(3) * RF_T
    assert parse_ratfunc("6 / 2 / 3") == RF_ONE
    assert parse_ratfunc("2 * t^2") == RatFunc.const(2) * RF_T ** 2


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ratfunc("t + + 1 x")
    assert exc.value.position >= 0
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("t^t")
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("(t + 1")
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("t 1")


def test_nesting_and_exponent_bounds():
    # 64 open parentheses or minus signs, and nested exponents whose
    # product is 100, are allowed
    assert parse_ratfunc("(" * 64 + "t" + ")" * 64) == RF_T
    assert parse_ratfunc("-(" * 32 + "t" + ")" * 32) == RF_T
    assert parse_ratfunc("(t + 1)^100") == (RF_T + RF_ONE) ** 100
    assert parse_ratfunc("(((t + 1)^5 - t)^2 * t^3)^10") == \
        (((RF_T + RF_ONE) ** 5 - RF_T) ** 2 * RF_T ** 3) ** 10
    assert parse_ratfunc("(t^100) * (t^100)") == RF_T ** 200
    # deg num + deg den of every intermediate result is bounded by 400
    base = RF_T + RF_ONE / (RF_T - RF_ONE)
    assert parse_ratfunc("(t + 1/(t - 1))^100") == base ** 100
    # over one shared denominator a sum keeps the operands' degree
    assert parse_ratfunc("(t + 1/(t - 1))^100 + (t + 1/(t - 1))^100") == 2 * base ** 100
    assert parse_ratfunc("(t + 1/(t - 1))^100 - (t + 1/(t - 1))^100") == RatFunc.const(0)
    for src in ("(" * 65 + "t" + ")" * 65, "-" * 65 + "t", "-(" * 33 + "t" + ")" * 33,
                "t^101", "[1, (t + 1)^101]", "(t^100)^2", "((t + 1)^100)^100",
                "(((t^100)^100)^100)^100", "((2^10)^10)^2", "((t^10 + 1) * t)^11",
                "(-t^51)^2", "[t, ((t)^10)^11]",
                "(t + 1/(t - 1))^100 * (t + 1/(t - 2))^100",
                "(t + 1/(t - 1))^100 + (t + 1/(t - 2))^100"):
        with pytest.raises(LimitExceeded):
            (parse_matrix if src.startswith("[") else parse_ratfunc)(src)


def test_long_chains_are_not_nested():
    assert parse_ratfunc(" + ".join(["t"] * 3000)) == RatFunc.const(3000) * RF_T
    assert parse_ratfunc(" * ".join(["t"] * 50)) == RF_T ** 50
    # the bound is on open parentheses, not on how many the input holds
    assert parse_ratfunc(" + ".join(["(-(t))"] * 100)) == RatFunc.const(-100) * RF_T
    assert parse_ratfunc("1 - 2 - 3 + 4 / 2 / 2") == RatFunc.const(-3)


def test_division_by_zero_function():
    with pytest.raises(DivisionByZeroFunction):
        parse_ratfunc("1/(t - t)")


def test_matrix_parsing():
    m = parse_matrix("[1, t; t^2, i]")
    assert m.rows == 2 and m.cols == 2
    assert m[1, 0] == RF_T ** 2
    with pytest.raises(RaggedRows):
        parse_matrix("[1, 2; 3]")
    with pytest.raises(ExprSyntaxError):
        parse_matrix("[1, 2; 3, 4] extra")


def test_matrix_size_bound():
    def square(n):
        return "[" + "; ".join(", ".join(["t"] * n) for _ in range(n)) + "]"

    assert parse_matrix(square(12)).rows == parse_matrix(square(12)).cols == 12
    # more than 12 rows or columns is refused while parsing, before the
    # entries are evaluated (1/0 would raise DivisionByZeroFunction)
    for src in (square(13), "[" + "; ".join(["t"] * 13) + "]",
                "[" + ", ".join(["t"] * 13) + "]", "[" + "; ".join(["1/0"] * 13) + "]"):
        with pytest.raises(LimitExceeded, match="more than 12"):
            parse_matrix(src)


def test_parse_gaussian():
    assert parse_gaussian("1/2 - 3*i") == gq("1/2", -3)
    with pytest.raises(ExprSyntaxError):
        parse_gaussian("t + 1")


def test_format_gaussian():
    assert format_gaussian(gq(0)) == "0"
    assert format_gaussian(gq(0, 1)) == "i"
    assert format_gaussian(gq(0, -1)) == "-i"
    assert format_gaussian(gq(1, 1)) == "1 + i"
    assert format_gaussian(gq("1/2", "-3/4")) == "1/2 - 3/4*i"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ratfuncs)
def test_format_parse_roundtrip_random(f):
    assert parse_ratfunc(format_ratfunc(f)) == f


def test_format_parse_roundtrip_matrix():
    rng = random.Random(72)
    for _ in range(30):
        m = rand_poly_matrix(rng, 3, 2)
        assert parse_matrix(format_matrix(m)) == m


def test_format_canonical_dispatch():
    assert format_canonical(RF_T) == "t"
    assert format_canonical(gq(2)) == "2"
    assert format_canonical(parse_matrix("[1, 0; 0, 1]")) == "[1, 0; 0, 1]"
    with pytest.raises(TypeError):
        format_canonical(object())


def test_format_is_deterministic():
    rng = random.Random(73)
    for _ in range(50):
        f = rand_ratfunc(rng, 2)
        assert format_ratfunc(f) == format_ratfunc(parse_ratfunc(format_ratfunc(f)))
