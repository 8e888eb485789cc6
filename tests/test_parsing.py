import random
import time

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
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("t\u00b2")  # a superscript two: a digit to str.isdigit, not to int()


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


def test_integer_literal_bound():
    # 200 digits parse; longer literals are refused before int(), which
    # itself refuses more than 4300 digits with a ValueError
    assert parse_ratfunc("9" * 200 + "*t") == RatFunc.const(10 ** 200 - 1) * RF_T
    for digits in (201, 5000):
        with pytest.raises(LimitExceeded, match="more than 200 digits"):
            parse_ratfunc("t + " + "1" * digits)
    with pytest.raises(LimitExceeded):
        parse_matrix("[1, 0; 0, " + "7" * 201 + "]")


def test_coefficient_size_bound():
    # 200-digit coefficients raised to the 100th would take seconds and
    # print beyond str()'s 4300 digits: the estimate refuses them at once
    long = "(" + "7" * 200 + "/" + "3" * 199 + "*t+1)^100"
    start = time.process_time()
    with pytest.raises(LimitExceeded, match="coefficients of about"):
        parse_ratfunc(long)
    assert time.process_time() - start < 2
    # a power whose estimate stays within the bound parses and prints
    near = parse_ratfunc("(" + "7" * 40 + "*t+1)^100")
    assert near == (RatFunc.const(int("7" * 40)) * RF_T + RF_ONE) ** 100
    assert format_ratfunc(near).count("t^") == 99
    # each operand is within the bound; their product is measured above it
    with pytest.raises(LimitExceeded, match="coefficients of 265"):
        parse_ratfunc(f"({'7' * 40}*t+1)^100*({'7' * 40}*t+3)^100")
    with pytest.raises(LimitExceeded):
        parse_matrix(f"[1, ({'7' * 52}*t+1)^100]")


def test_printer_refuses_coefficients_beyond_str():
    # str() refuses an int of more than 4300 digits with a ValueError
    big = GaussianRational(10 ** 4400, 1)
    for text in (lambda: format_gaussian(big), lambda: format_gaussian(GaussianRational(1, big.re)),
                 lambda: format_ratfunc(RatFunc.const(big) * RF_T),
                 lambda: format_ratfunc(RF_T / RatFunc.const(gq(0, 10 ** 4400)))):
        with pytest.raises(LimitExceeded, match="too long to print"):
            text()
    assert format_gaussian(GaussianRational(10 ** 4000, -1)) == str(10 ** 4000) + " - i"


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
