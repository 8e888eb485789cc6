"""SO(3) automorphic systems and Darboux's reduction to a scalar Riccati
equation through the symmetric coordinates of the complexified sphere.

The skew field (a, b, c) is the matrix [[0, a, b], [-a, 0, c],
[-b, -c, 0]], i.e. the flow

    x0' = a x1 + b x2,   x1' = -a x0 + c x2,   x2' = -b x0 - c x1.

Pushing it through the chart x = (x0 + i x1)/(1 - x2) gives the Riccati
equation

    x' = (-b - i c)/2 - i a x + (-b + i c)/2 x**2,

which this module generates and verifies pointwise (the pushforward
check recomputes x' by the chain rule at exact sphere points).

Display notes, machine-verified here and in the tests:
  * the inverse chart's second coordinate must read
    y = (x2 - 1)/(x0 - i x1); the classical print with (x1 - i x2) in
    the denominator does not invert the forward chart;
  * the Möbius displays for the first two one-parameter rotation
    families check out pointwise, the third does not; the oracle-derived
    matrix [[i(L+1), L-1], [-(L-1), i(L+1)]] is returned instead;
  * in the algebra morphism to sl(2), the sign table forced by the
    pushforward identity flips the first two printed basis images.
"""

from __future__ import annotations

from .errors import (ChartDenominatorVanishes, DiagonalPoint, DimensionMismatch,
                     DivisionByZero, NotOnSphere, ToolkitError)
from .matrix import MatK
from .mpoly import MPoly
from .ratfunc import RatFunc, RF_ZERO, _as_rf
from .records import Record
from .scalars import GaussianRational, I, ONE, ZERO


_I_RF = RatFunc.const(I)
_HALF = RatFunc.const(GaussianRational("1/2"))


class SO3Field(Record):
    """Automorphic field on SO(3), given by the entries a, b, c in K."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        super().__init__(_as_rf(a), _as_rf(b), _as_rf(c))

    def matrix(self) -> MatK:
        a, b, c = self.a, self.b, self.c
        return MatK.from_rows([
            [RF_ZERO, a, b],
            [-a, RF_ZERO, c],
            [-b, -c, RF_ZERO],
        ])


class SpherePoint(Record):
    """Exact point of the complexified unit sphere x0^2 + x1^2 + x2^2 = 1."""

    __slots__ = ("x0", "x1", "x2")

    def __init__(self, x0, x1, x2):
        super().__init__(GaussianRational(x0), GaussianRational(x1), GaussianRational(x2))
        if self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 != ONE:
            raise NotOnSphere("point is not on the unit sphere")


def so3_to_riccati(field: SO3Field):
    """Coefficients (q0, q1, q2) of x' = q0 + q1 x + q2 x**2."""
    a, b, c = field.a, field.b, field.c
    q0 = (-b - _I_RF * c) * _HALF
    q1 = -_I_RF * a
    q2 = (-b + _I_RF * c) * _HALF
    return q0, q1, q2


def symmetric_coords(p: SpherePoint):
    """Darboux symmetric coordinates (x, y) of a sphere point.

    x = (x0 + i x1)/(1 - x2) and y = (x2 - 1)/(x0 - i x1); the y formula
    is the inverse forced by sphere_from_symmetric (see module notes).
    """
    dx = ONE - p.x2
    if dx.is_zero():
        raise ChartDenominatorVanishes("north pole excluded from the x chart")
    dy = p.x0 - I * p.x1
    if dy.is_zero():
        raise ChartDenominatorVanishes("point excluded from the y chart")
    return (p.x0 + I * p.x1) / dx, (p.x2 - ONE) / dy


def sphere_from_symmetric(x: GaussianRational, y: GaussianRational) -> SpherePoint:
    """Sphere point with symmetric coordinates (x, y), x != y.

    x0 = (1 - xy)/(x - y), x1 = i(1 + xy)/(x - y), x2 = (x + y)/(x - y);
    the unit-sphere identity holds automatically (sphere_identity_residual
    proves it symbolically).
    """
    x = GaussianRational(x)
    y = GaussianRational(y)
    d = x - y
    if d.is_zero():
        raise DiagonalPoint("x = y lies on the excluded diagonal")
    xy = x * y
    return SpherePoint((ONE - xy) / d, I * (ONE + xy) / d, (x + y) / d)


def sphere_identity_residual() -> MPoly:
    """(1 - xy)^2 - (1 + xy)^2 + (x + y)^2 - (x - y)^2 as a polynomial.

    Identically zero: the image of sphere_from_symmetric satisfies
    x0^2 + x1^2 + x2^2 = 1 as a rational-function identity.
    """
    x = MPoly.var("x")
    y = MPoly.var("y")
    xy = x * y
    return (1 - xy) ** 2 - (1 + xy) ** 2 + (x + y) ** 2 - (x - y) ** 2


def sphere_velocity(field: SO3Field, p: SpherePoint, t0: GaussianRational):
    """(x0', x1', x2') of the SO(3) flow at p, coefficients evaluated at t0."""
    a = field.a.eval(t0)
    b = field.b.eval(t0)
    c = field.c.eval(t0)
    return (
        a * p.x1 + b * p.x2,
        -a * p.x0 + c * p.x2,
        -b * p.x0 - c * p.x1,
    )


def so3_pushforward_check(field: SO3Field, p: SpherePoint, t0) -> bool:
    """Chain-rule check that the Riccati equation is the chart pushforward.

    Computes x' at p two ways: through the chart derivative of
    x = (x0 + i x1)/(1 - x2) along the SO(3) flow, and by evaluating the
    Riccati right-hand side at x(p); returns exact equality.
    """
    t0 = GaussianRational(t0)
    d = ONE - p.x2
    if d.is_zero():
        raise ChartDenominatorVanishes("north pole excluded from the x chart")
    v0, v1, v2 = sphere_velocity(field, p, t0)
    w = p.x0 + I * p.x1
    chain = (v0 + I * v1) / d + w * v2 / (d * d)
    x = w / d
    q0, q1, q2 = so3_to_riccati(field)
    direct = q0.eval(t0) + q1.eval(t0) * x + q2.eval(t0) * x * x
    return chain == direct


# -- rotations and the algebra morphism -------------------------------------

_AXES = (0, 1, 2)


def _rotation_param(axis: int, lam) -> GaussianRational:
    if axis not in _AXES:
        raise ToolkitError("axis must be 0, 1 or 2")
    lam = GaussianRational(lam)
    if lam.is_zero():
        raise DivisionByZero("rotation parameter must be nonzero")
    return lam


def rotation_matrix(axis: int, lam: GaussianRational) -> MatK:
    """One-parameter rotation family R_axis(lam) in SO(3, Q(i)).

    axis 0 fixes x0, axis 1 fixes x2, axis 2 fixes x1 (the three
    classical one-parameter families, in their printed order).
    """
    lam = _rotation_param(axis, lam)
    c = (lam + ONE / lam) / GaussianRational(2)
    s = (lam - ONE / lam) / (GaussianRational(2) * I)
    z, o = ZERO, ONE
    if axis == 0:
        rows = [[o, z, z], [z, c, -s], [z, s, c]]
    elif axis == 1:
        rows = [[c, -s, z], [s, c, z], [z, z, o]]
    else:
        rows = [[c, z, -s], [z, o, z], [s, z, c]]
    return MatK.from_rows([[RatFunc.const(e) for e in row] for row in rows])


def rotation_to_moebius(axis: int, lam: GaussianRational):
    """2x2 Möbius representative (up to scale) of R_axis(lam) on the x chart.

    Verified pointwise against rotation conjugation; for axis 2 the
    classical printed coefficient fails that check and the oracle-derived
    matrix is returned (see rotation_display_report).
    """
    lam = _rotation_param(axis, lam)
    o = ONE
    if axis == 0:
        return ((lam + o, lam - o), (lam - o, lam + o))
    if axis == 1:
        return ((lam, ZERO), (ZERO, o))
    return ((I * (lam + o), lam - o), (-(lam - o), I * (lam + o)))


def displayed_moebius(axis: int, lam: GaussianRational):
    """The classical printed Möbius for R_axis(lam).

    The prints for axes 0 and 1 are rotation_to_moebius; the axis 2
    print is transcribed verbatim.
    """
    if axis != 2:
        return rotation_to_moebius(axis, lam)
    lam = _rotation_param(axis, lam)
    k = lam + ONE / lam + GaussianRational("1/2")
    d = I * (lam - ONE / lam)
    return ((k, -d), (-d, -k))


def moebius_apply(m, x: GaussianRational) -> GaussianRational:
    (a, b), (c, d) = m
    den = c * x + d
    if den.is_zero():
        raise ChartDenominatorVanishes("Möbius image at infinity")
    return (a * x + b) / den


def apply_rotation(axis: int, lam: GaussianRational, p: SpherePoint) -> SpherePoint:
    r = rotation_matrix(axis, lam)
    coords = []
    pv = (p.x0, p.x1, p.x2)
    for i in range(3):
        acc = ZERO
        for j in range(3):
            acc = acc + r[i, j].constant_value() * pv[j]
        coords.append(acc)
    return SpherePoint(*coords)


_ORACLE_POINTS = [
    ("3/5", "4/5", 0),
    ("3/5", 0, "4/5"),
    (0, "3/5", "4/5"),
    ("2/3", "2/3", "1/3"),
    ("-2/3", "1/3", "2/3"),
    ("12/13", "-4/13", "3/13"),
]


def moebius_matches_rotation(axis: int, lam: GaussianRational, m) -> bool:
    """Pointwise conjugation oracle: does m act as R_axis(lam) on the x chart?"""
    checked = 0
    for coords in _ORACLE_POINTS:
        p = SpherePoint(*coords)
        try:
            x, _ = symmetric_coords(p)
            q = apply_rotation(axis, lam, p)
            xq, _ = symmetric_coords(q)
            if moebius_apply(m, x) != xq:
                return False
            checked += 1
        except ChartDenominatorVanishes:
            continue
    return checked >= 3


def rotation_display_report(lams=(2, 3, GaussianRational("1/2"))):
    """Which printed Möbius displays pass the conjugation oracle, per axis."""
    report = {}
    for axis in _AXES:
        ok = all(moebius_matches_rotation(axis, GaussianRational(lam),
                                          displayed_moebius(axis, GaussianRational(lam)))
                 for lam in lams)
        report[axis] = {"displayed_matches": ok}
    return report


def so3_basis() -> list[MatK]:
    """so(3) basis (L01, L02, L12) matching the (a, b, c) components."""
    return [SO3Field(1, 0, 0).matrix(),
            SO3Field(0, 1, 0).matrix(),
            SO3Field(0, 0, 1).matrix()]


def so3_algebra_to_sl2(field: SO3Field) -> MatK:
    """Image of (a, b, c) under the algebra morphism so(3) -> sl(2).

    Basis images (sign table pinned by the pushforward identity):
        (1,0,0) -> [[-i/2, 0], [0, i/2]]
        (0,1,0) -> [[0, -1/2], [1/2, 0]]
        (0,0,1) -> [[0, -i/2], [-i/2, 0]]
    The result is trace-free and bracket-preserving.
    """
    a, b, c = field.a, field.b, field.c
    alpha = -_I_RF * a * _HALF
    beta = -(b + _I_RF * c) * _HALF
    gamma = (b - _I_RF * c) * _HALF
    return MatK.from_rows([[alpha, beta], [gamma, -alpha]])


def sl2_to_riccati(m: MatK):
    """Riccati coefficients of the projective field of [[α, β], [γ, -α]].

    The affine action x -> (αx + β)/(γx - α) linearizes to
    x' = β + 2αx - γx**2.
    """
    if (m.rows, m.cols) != (2, 2):
        raise DimensionMismatch("expected a 2x2 matrix")
    if not m.trace().is_zero():
        raise DimensionMismatch("expected a trace-free matrix")
    alpha = m[0, 0]
    beta = m[0, 1]
    gamma = m[1, 0]
    return beta, RatFunc.const(2) * alpha, -gamma
