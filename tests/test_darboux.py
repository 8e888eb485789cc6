import random
from fractions import Fraction

import pytest

import lievessiot.darboux as dbx
from lievessiot.darboux import (SO3Field, SpherePoint, rotation_matrix,
                                rotation_to_moebius, sl2_to_riccati,
                                so3_algebra_to_sl2, so3_pushforward_check,
                                so3_to_riccati, sphere_from_symmetric,
                                symmetric_coords)
from lievessiot.errors import (ChartDenominatorVanishes, DiagonalPoint,
                               DimensionMismatch, DivisionByZero, NotOnSphere,
                               PoleAtPoint, ToolkitError)
from lievessiot.matrix import MatK
from lievessiot.parsing import parse_ratfunc
from lievessiot.ratfunc import RatFunc
from lievessiot.scalars import GaussianRational, I, ONE, gq

from support import rand_fraction, rand_ratfunc, rand_sphere_point


def test_sphere_point_validation():
    SpherePoint(Fraction(3, 5), Fraction(4, 5), 0)
    with pytest.raises(ValueError):
        SpherePoint(1, 1, 0)


def test_sphere_point_off_sphere_is_toolkit_error():
    with pytest.raises(NotOnSphere):
        SpherePoint(1, 1, 1)


def test_so3_matrix_is_skew():
    f = SO3Field(parse_ratfunc("t"), parse_ratfunc("1"), parse_ratfunc("i"))
    m = f.matrix()
    assert m.transpose() == -m


def test_symmetric_coords_example():
    p = SpherePoint(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    x, y = symmetric_coords(p)
    assert x == GaussianRational(1, 1)
    assert y == GaussianRational(Fraction(-1, 2), Fraction(-1, 2))


def test_symmetric_coords_roundtrip_random():
    rng = random.Random(51)
    for _ in range(50):
        p = rand_sphere_point(rng)
        x, y = symmetric_coords(p)
        assert sphere_from_symmetric(x, y) == p


def test_chart_failures():
    with pytest.raises(ChartDenominatorVanishes):
        symmetric_coords(SpherePoint(0, 0, 1))
    with pytest.raises(DiagonalPoint):
        sphere_from_symmetric(gq(1), gq(1))


def test_sphere_identity_symbolic():
    assert dbx.sphere_identity_residual().is_zero()


def test_riccati_coefficients_symbolic():
    a = parse_ratfunc("t")
    b = parse_ratfunc("1")
    c = parse_ratfunc("t^2")
    q0, q1, q2 = so3_to_riccati(SO3Field(a, b, c))
    half = RatFunc.const(gq("1/2"))
    i_rf = RatFunc.const(I)
    assert q0 == (-b - i_rf * c) * half
    assert q1 == -i_rf * a
    assert q2 == (-b + i_rf * c) * half


def test_pushforward_random():
    rng = random.Random(52)
    for _ in range(40):
        field = SO3Field(rand_ratfunc(rng, 2), rand_ratfunc(rng, 2),
                         rand_ratfunc(rng, 2))
        p = rand_sphere_point(rng)
        t0 = GaussianRational(rand_fraction(rng))
        try:
            ok = so3_pushforward_check(field, p, t0)
        except PoleAtPoint:
            continue  # a coefficient has a pole at t0
        assert ok


def test_rotation_matrices_are_special_orthogonal():
    for axis in (0, 1, 2):
        for lam in (gq(2), gq(3), gq("1/2"), gq(0, 1)):
            r = rotation_matrix(axis, lam)
            assert r.transpose() * r == MatK.identity(3)
            assert r.det() == RatFunc.const(1)


def test_rotation_moebius_conjugation():
    for axis in (0, 1, 2):
        for lam in (gq(2), gq(3), gq("1/2")):
            m = rotation_to_moebius(axis, lam)
            assert dbx.moebius_matches_rotation(axis, lam, m)


@pytest.mark.parametrize("rotation", [rotation_matrix, rotation_to_moebius])
def test_rotation_zero_parameter(rotation):
    with pytest.raises(DivisionByZero):
        rotation(0, 0)


@pytest.mark.parametrize("rotation", [rotation_matrix, rotation_to_moebius])
def test_rotation_bad_axis(rotation):
    with pytest.raises(ToolkitError):
        rotation(3, 2)


def test_displayed_moebius_axes_0_1_are_derived():
    for axis in (0, 1):
        assert dbx.displayed_moebius(axis, gq(3)) == rotation_to_moebius(axis, gq(3))


def test_displayed_moebius_report():
    report = dbx.rotation_display_report()
    assert report[0]["displayed_matches"]
    assert report[1]["displayed_matches"]
    assert not report[2]["displayed_matches"]


def test_algebra_morphism_basis_images():
    half_i = RatFunc.const(gq(0, "1/2"))
    half = RatFunc.const(gq("1/2"))
    z = RatFunc.const(0)
    m1 = so3_algebra_to_sl2(SO3Field(1, 0, 0))
    assert m1 == MatK.from_rows([[-half_i, z], [z, half_i]])
    m2 = so3_algebra_to_sl2(SO3Field(0, 1, 0))
    assert m2 == MatK.from_rows([[z, -half], [half, z]])
    m3 = so3_algebra_to_sl2(SO3Field(0, 0, 1))
    assert m3 == MatK.from_rows([[z, -half_i], [-half_i, z]])


def test_algebra_morphism_preserves_brackets():
    basis_so3 = dbx.so3_basis()
    basis_sl2 = [so3_algebra_to_sl2(SO3Field(1, 0, 0)),
                 so3_algebra_to_sl2(SO3Field(0, 1, 0)),
                 so3_algebra_to_sl2(SO3Field(0, 0, 1))]

    def image(m):
        # read off (a, b, c) from the skew matrix and map it
        return so3_algebra_to_sl2(SO3Field(m[0, 1], m[0, 2], m[1, 2]))

    for p in range(3):
        for q in range(3):
            lhs = basis_sl2[p].lie_bracket(basis_sl2[q])
            rhs = image(basis_so3[p].lie_bracket(basis_so3[q]))
            assert lhs == rhs


def test_sl2_to_riccati_composition_identity():
    rng = random.Random(53)
    for _ in range(30):
        f = SO3Field(rand_ratfunc(rng, 2), rand_ratfunc(rng, 2),
                     rand_ratfunc(rng, 2))
        assert so3_to_riccati(f) == sl2_to_riccati(so3_algebra_to_sl2(f))


def test_sl2_to_riccati_validation():
    with pytest.raises(DimensionMismatch):
        sl2_to_riccati(MatK.identity(3))
    with pytest.raises(DimensionMismatch):
        sl2_to_riccati(MatK.identity(2))
