import random
from fractions import Fraction

import pytest

from lievessiot.errors import DivisionByZero
from lievessiot.scalars import GaussianRational, I, ONE, ZERO, gq

from support import rand_gauss


def test_construction_and_coercion():
    assert GaussianRational(3).re == 3
    assert GaussianRational("2/3").re == Fraction(2, 3)
    assert gq("1/2", "-3/4") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert GaussianRational(GaussianRational(1, 2)) == GaussianRational(1, 2)


def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a = rand_gauss(rng)
        b = rand_gauss(rng)
        c = rand_gauss(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_i_squares_to_minus_one():
    assert I * I == -ONE


def test_conjugate_and_norm():
    z = GaussianRational(3, 4)
    assert z.conjugate() == GaussianRational(3, -4)
    assert z.norm() == 25
    assert z * z.conjugate() == GaussianRational(25)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_inverse_of_complex():
    z = GaussianRational(1, 1)
    assert ONE / z == GaussianRational(Fraction(1, 2), Fraction(-1, 2))


def test_truthiness_and_hash():
    assert not ZERO
    assert ONE
    assert hash(GaussianRational(2, 3)) == hash(GaussianRational(2, 3))


def test_hash_consistent_with_eq():
    for value in (0, 1, -7, Fraction(2, 3)):
        assert GaussianRational(value) == value
        assert hash(GaussianRational(value)) == hash(value)


def test_int_mixing():
    assert GaussianRational(2) + 1 == GaussianRational(3)
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
    assert 1 - GaussianRational(0, 1) == GaussianRational(1, -1)
