import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lievessiot.errors import DivisionByZero, PoleAtPoint
import lievessiot.ratfunc as ratfunc
from lievessiot.ratfunc import (Poly, RatFunc, RF_ONE, RF_T, RF_ZERO, _content,
                                _prime, _primitive, _zderiv, _zdot, _zgcd, _zmul, _zquo,
                                check_exponential_solution,
                                check_integral_solution)
from lievessiot.scalars import GaussianRational, gq

from support import rand_poly, rand_ratfunc, ratfuncs


def test_poly_basics():
    p = Poly([1, 2, 1])  # 1 + 2t + t^2
    assert p.degree == 2
    assert p.eval(GaussianRational(2)) == GaussianRational(9)
    assert p.derivative() == Poly([2, 2])
    assert Poly([]).degree == -1


def test_poly_divmod_invariant():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, 5)
        b = rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_gcd_divides_both():
    rng = random.Random(8)
    for _ in range(60):
        g = rand_poly(rng, 2)
        a = rand_poly(rng, 2) * g
        b = rand_poly(rng, 2) * g
        if a.is_zero() or b.is_zero():
            continue
        d = a.gcd(b)
        assert a.divmod(d)[1].is_zero()
        assert b.divmod(d)[1].is_zero()
        if not g.is_zero():
            assert d.divmod(g.monic())[1].is_zero()


def test_canonical_form_structural_equality():
    # (t^2 - 1)/(t - 1) reduces to t + 1; 2t/2 reduces to monic-denominator t
    a = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert a == RatFunc(Poly([1, 1]))
    b = RatFunc(Poly([0, 2]), Poly([2]))
    assert b.den == Poly([1])
    assert b.num == Poly([0, 1])
    assert hash(a) == hash(RatFunc(Poly([1, 1])))


def test_constant_hash_consistent_with_eq():
    for value in (0, 1, -7, GaussianRational(2, 3)):
        assert RatFunc.const(value) == value
        assert hash(RatFunc.const(value)) == hash(value)
    assert RatFunc(Poly([2]), Poly([4])) == GaussianRational(Fraction(1, 2))
    assert hash(RatFunc(Poly([2]), Poly([4]))) == hash(Fraction(1, 2))


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RatFunc(Poly([1]), Poly([]))
    with pytest.raises(DivisionByZero):
        RF_ONE / RF_ZERO


def test_field_axioms_random():
    rng = random.Random(9)
    for _ in range(80):
        a = rand_ratfunc(rng, 2)
        b = rand_ratfunc(rng, 2)
        c = rand_ratfunc(rng, 2)
        assert (a + b) * c == a * c + b * c
        assert a - a == RF_ZERO
        if not b.is_zero():
            assert (a / b) * b == a


def test_derivation_leibniz_and_quotient():
    rng = random.Random(10)
    for _ in range(60):
        a = rand_ratfunc(rng, 3)
        b = rand_ratfunc(rng, 3)
        assert (a * b).derive() == a.derive() * b + a * b.derive()
        assert (a + b).derive() == a.derive() + b.derive()
        if not b.is_zero():
            assert (a / b).derive() == (a.derive() * b - a * b.derive()) / (b * b)


def test_derivative_worked_example():
    # ((t^2 + 1)/(t - 1))' = (t^2 - 2t - 1)/(t - 1)^2
    f = (RF_T * RF_T + RF_ONE) / (RF_T - RF_ONE)
    expect = (RF_T * RF_T - RatFunc.const(2) * RF_T - RF_ONE) / ((RF_T - RF_ONE) ** 2)
    assert f.derive() == expect


def test_logderiv_is_multiplicative_to_additive():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_ratfunc(rng, 2)
        b = rand_ratfunc(rng, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).logderiv() == a.logderiv() + b.logderiv()


def test_eval_and_poles():
    f = RF_ONE / (RF_T - RF_ONE)
    assert f.eval(GaussianRational(3)) == gq("1/2")
    with pytest.raises(PoleAtPoint):
        f.eval(GaussianRational(1))


def test_pow():
    f = RF_T + RF_ONE
    assert f ** 0 == RF_ONE
    assert f ** 3 == f * f * f
    assert (RF_T ** 2) == RF_T * RF_T


def test_constant_detection():
    assert RatFunc.const(gq(2, 3)).is_constant()
    assert not RF_T.is_constant()
    assert RatFunc.const(5).constant_value() == GaussianRational(5)


def test_quadrature_checks():
    # integral: (t^2)' = 2t
    assert check_integral_solution(RatFunc.const(2) * RF_T, RF_T ** 2)
    assert not check_integral_solution(RF_T, RF_T ** 2)
    # exponential: ((t-1)^3)'/(t-1)^3 = 3/(t-1)
    b = (RF_T - RF_ONE) ** 3
    a = RatFunc.const(3) / (RF_T - RF_ONE)
    assert check_exponential_solution(a, b)
    assert not check_exponential_solution(a + RF_ONE, b)


# -- the Z[i][t] kernels against sympy's ZZ_I[t] ------------------------------

_R, _t = sympy.ring("t", sympy.ZZ_I)
_UNITS = [sympy.ZZ_I(1, 0), sympy.ZZ_I(-1, 0), sympy.ZZ_I(0, 1), sympy.ZZ_I(0, -1)]


def _trim(coeffs):
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    return coeffs


# small degrees and coefficients keep products and gcds quick; Gaussian
# leading coefficients exercise the conjugate in the exact division
_zi = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
_zpoly = st.lists(_zi, max_size=5).map(_trim)
_nonzero = _zpoly.filter(bool)


def _sym(a):
    return _R.from_dict({(k,): sympy.ZZ_I(re, im) for k, (re, im) in enumerate(a)
                         if re or im})


def _up_to_unit(ours, ref):
    return any(ours == ref * u for u in _UNITS)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_zpoly, _zpoly, _nonzero)
def test_zi_ring_operations_match_sympy(a, b, c):
    for x in (_zmul(a, b), _zdot(((a, b), (c, c))), _zderiv(a), _zquo(_zmul(a, c), c)):
        assert not x or x[-1] != (0, 0)  # no trailing zeros
    assert _sym(_zmul(a, b)) == _sym(a) * _sym(b)
    assert _sym(_zdot(((a, b), (c, c)))) == _sym(a) * _sym(b) + _sym(c) ** 2
    assert _sym(_zderiv(a)) == _sym(a).diff(_t)
    assert _sym(_zquo(_zmul(a, c), c)) == (_sym(a) * _sym(c)).exquo(_sym(c)) == _sym(a)


# the first prime of the modular gcd and its root of -1; P = (p, i - r)
_P, _ROOT = _prime(0)
_T = [(0, 0), (1, 0)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_nonzero, _nonzero, _nonzero)
# unlucky primes: coprime over Q(i), but t + p = t mod P and P', t + r - i = t mod P
@example(_T, [(_P, 0), (1, 0)], [(1, 0)])
@example(_T, [(_P, 0), (1, 0)], [(1, 0), (1, 0)])
@example(_T, [(_ROOT, -1), (1, 0)], [(1, 0)])
@example(_T, [(_ROOT, -1), (1, 0)], [(1, 0), (1, 0)])
# leading coefficients divisible by p, and an operand that vanishes mod P
@example([(1, 0), (_P, 0)], [(3, 0), (_P, 0)], [(2, 0), (1, 0)])
@example([(_ROOT, -1), (_ROOT, -1)], [(-1, 0), (1, 0)], [(2, 1), (1, 0)])
@example([(_P, 0), (_P, 0)], [(-1, 0), (1, 0)], [(2, 1), (1, 0)])
# a common factor of degree 2 with non-unit Gaussian content, in operands with
# non-unit contents; and a constant operand
@example([(2, 1), (4, 2)], [(6, 0), (0, 0), (3, 0)], [(5, 5), (1, 1), (3, 3)])
@example([(4, 2)], [(1, 0), (1, 0)], [(1, 0)])
# a gcd whose coefficients need more than one prime
@example([(1, 0), (1, 0)], [(-1, 0), (1, 0)], [(2**40 + 3, 5**20), (7, 0), (1, 0)])
def test_zi_gcd_and_content_match_sympy(a, b, c):
    f, g = _zmul(a, c), _zmul(b, c)
    ours, f_ours, g_ours = _zgcd(f, g)
    assert _up_to_unit(_sym(ours), _sym(f).gcd(_sym(g)).primitive()[1])
    assert _sym(_zquo(f, ours)) * _sym(ours) == _sym(f)
    assert _sym(f_ours) * _sym(ours) == _sym(f) and _sym(g_ours) * _sym(ours) == _sym(g)
    content, primitive = _sym(f).primitive()
    assert _up_to_unit(sympy.ZZ_I(*_content(f)), content)
    assert _up_to_unit(_sym(_primitive(f)), primitive)


def test_zi_gcd_certifies_coprime_without_gaussian_gcds(monkeypatch):
    # the first prime proves (2 + i)(t + 1) and 3(t - 1) coprime: no content is taken
    def refuse(x, y):
        raise AssertionError("a Gaussian gcd on a coprime pair")

    monkeypatch.setattr(ratfunc, "_gi_gcd", refuse)
    a, b = [(2, 1), (2, 1)], [(-3, 0), (3, 0)]
    assert _zgcd(a, b) == ([(1, 0)], a, b)


def test_constant_and_polynomial_operands_skip_the_gcd(monkeypatch):
    # a gcd with a constant operand is 1, and a product by a constant only
    # scales, so none of these clears an operand to Z[i] or runs _zgcd
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    p, q = RatFunc(Poly([1, 1])), RatFunc(Poly([gq(0, -1), 2]))  # t + 1, 2t - i
    f = RatFunc(Poly([1, 1]), Poly([-2, 0, 1]))  # (t + 1)/(t^2 - 2)
    c = gq("2/3", -1)
    with monkeypatch.context() as m:
        m.setattr(ratfunc, "_zgcd", counted(ratfunc._zgcd))
        m.setattr(ratfunc, "_clear", counted(ratfunc._clear))
        got = [p * q, RatFunc.const(c) * f, f * RF_ONE, p + f, p - f]
        gcds = [p.num.gcd(Poly.const(3)), Poly.const(gq(0, 2)).gcd(f.den)]
    assert calls == []
    # the same values through the reducing constructor
    assert got == [
        RatFunc(Poly([gq(0, -1), gq(2, -1), 2]), Poly([1])),
        RatFunc(Poly([c * 5, c * 5]), Poly([-10, 0, 5])),
        RatFunc(Poly([3, 3]), Poly([-6, 0, 3])),
        RatFunc(Poly([-1, -1, 1, 1]), Poly([-2, 0, 1])),
        RatFunc(Poly([-3, -3, 1, 1]), Poly([-2, 0, 1])),
    ]
    assert gcds == [Poly([1]), Poly([1])]
    # a product by 1 shares the other operand's polynomials
    assert got[2].num is f.num and got[2].den is f.den


# -- RatFunc arithmetic against sympy's cancel over Q(i)(t) ------------------

_ST = sympy.Symbol("t")


def _sym_poly(p: Poly):
    return sympy.Poly.from_list(
        [sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
         for c in reversed(p.coeffs)] or [0], _ST, domain="QQ_I")


def _agrees(ours: RatFunc, num, den) -> bool:
    """ours is sympy's cancel of num/den with the denominator made monic."""
    num, den = num.cancel(den, include=True)
    lead = den.LC()
    return (_sym_poly(ours.num) == num.quo_ground(lead)
            and _sym_poly(ours.den) == den.quo_ground(lead))


# Random operands rarely share a denominator factor, so the examples make
# Henrici's g = gcd(ad, bd) nonconstant: 1/(t^2 - t) + 1/(t^2 + t) = 2/(t^2 - 1)
# also cancels h = t from the new numerator, the difference does not, and
# t/(t^2 - 1) + 1/(t^2 - 1) = 1/(t - 1) cancels all of g and then h = t + 1.
# (t^2 - 1)/t * t/(t + 1) = t - 1 cancels across both pairs.
_TT = Poly([0, -1, 1]), Poly([0, 1, 1]), Poly([-1, 0, 1])  # t^2 - t, t^2 + t, t^2 - 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ratfuncs, ratfuncs)
@example(RatFunc(1, _TT[0]), RatFunc(1, _TT[1]))
@example(RatFunc(Poly.t(), _TT[2]), RatFunc(1, _TT[2]))
@example(RatFunc(_TT[2], Poly.t()), RatFunc(Poly.t(), Poly([1, 1])))
def test_arithmetic_matches_sympy_cancel(a, b):
    an, ad, bn, bd = map(_sym_poly, (a.num, a.den, b.num, b.den))
    assert _agrees(a + b, an * bd + bn * ad, ad * bd)
    assert _agrees(a - b, an * bd - bn * ad, ad * bd)
    assert _agrees(a * b, an * bn, ad * bd)
    assert _agrees(a.derive(), an.diff() * ad - an * ad.diff(), ad * ad)
    if not b.is_zero():
        assert _agrees(a / b, an * bd, ad * bn)
