from lievessiot.mpoly import MPoly
from lievessiot.ratfunc import RF_T, RatFunc
from lievessiot.scalars import GaussianRational, I, gq

X = MPoly.var("x")
Y = MPoly.var("y")
# small fixed polynomials, one of them with K = Q(i)(t) coefficients
P = X * X - 2 * X * Y + gq("1/3")
Q = I * Y + 3 * X - 1
R = RF_T * X * Y + RatFunc.const(2) * Y * Y


def test_representation():
    assert X * Y == Y * X == MPoly({("y", "x"): 1})
    assert dict(X ** 3) == {("x", "x", "x"): gq(1)}
    assert (X - X).is_zero() and X - X == 0 and MPoly() == 0
    assert MPoly({(): 5}) == 5 and MPoly({(): 5}) != 4
    assert MPoly({("x",): 0}) == MPoly()


def test_ring_laws():
    for a, b, c in ((P, Q, R), (Q, R, P), (R, P, Q)):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0 and a + (-a) == 0
        assert a * 1 == a and a + 0 == a and a * 0 == 0
        assert 2 - a == -(a - 2)
    assert P ** 3 == P * P * P and P ** 0 == 1


def test_scalars_mix_with_polynomials():
    assert RF_T * X == X * RF_T
    assert (RF_T * X)[("x",)] == RF_T
    assert (gq(2) * X + GaussianRational(1)) == 2 * X + 1


def test_derivative_and_product_rule():
    assert (X ** 3).derivative("x") == 3 * X * X
    assert P.derivative("x") == 2 * X - 2 * Y
    assert Q.derivative("y") == I
    assert R.derivative("z") == 0
    for a, b in ((P, Q), (Q, R), (R, P)):
        for v in ("x", "y"):
            assert (a * b).derivative(v) == a.derivative(v) * b + a * b.derivative(v)
