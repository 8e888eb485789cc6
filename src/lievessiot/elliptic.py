"""Weierstrass elliptic curves y^2 = 4x^3 - g2 x - g3 over Q(i), the
chord-tangent group law, the closed addition-law solution formulas for
the automorphic equation on a curve, and the pendulum normal form.

A solution of the automorphic field a*v on the curve is a point
(xi, eta) with coordinates in K such that eta = xi'/a, which collapses
to the single scalar relation (xi')^2 = a^2 (4 xi^3 - g2 xi - g3)
(the "Weierstrassian element" relation; the classical display prints a
quadratic in its right-hand side, the curve fixes the cubic).

Display notes, machine-verified by invariant_field_check and the
chord-tangent oracle:
  * the tangent generator must read y d/dx + (6x^2 - g2/2) d/dy; the
    printed coefficient 12x^2 - g2 leaves the residual y(12x^2 - g2);
  * in the closed addition formulas the printed -(1/4)s^2 term and the
    6/2 coefficient are pinned by the oracle to +(1/4)s^2 and 3/2
    (the symmetrized chord-tangent form).
"""

from __future__ import annotations

from .errors import (DegenerateEnergy, NotOnCurve, PointCollision,
                     RelationViolated, SingularCurve, ZeroCoefficient)
from .mpoly import MPoly
from .ratfunc import RatFunc, _as_rf
from .records import Record
from .scalars import GaussianRational


class WeierstrassCurve:
    """y^2 = 4x^3 - g2 x - g3 with g2, g3 in Q(i) and g2^3 - 27 g3^2 != 0."""

    __slots__ = ("g2", "g3")

    def __init__(self, g2, g3):
        g2 = GaussianRational(g2)
        g3 = GaussianRational(g3)
        if g2 * g2 * g2 - GaussianRational(27) * g3 * g3 == GaussianRational(0):
            raise SingularCurve("g2^3 - 27 g3^2 = 0: the cubic has a repeated root")
        self.g2 = g2
        self.g3 = g3

    def discriminant(self) -> GaussianRational:
        return self.g2 * self.g2 * self.g2 - GaussianRational(27) * self.g3 * self.g3

    def __eq__(self, other):
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return (self.g2, self.g3) == (other.g2, other.g3)

    def __repr__(self):
        return f"WeierstrassCurve(g2={self.g2}, g3={self.g3})"


class CurvePoint:
    """Point of a Weierstrass curve: Infinity or affine (x, y) over K."""

    __slots__ = ("x", "y", "infinite")

    def __init__(self, x=None, y=None, infinite=False):
        self.infinite = infinite
        if infinite:
            self.x = None
            self.y = None
        else:
            self.x = _as_rf(x)
            self.y = _as_rf(y)

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(infinite=True)

    def __neg__(self):
        if self.infinite:
            return self
        return CurvePoint(self.x, -self.y)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite == other.infinite
        return self.x == other.x and self.y == other.y

    def __repr__(self):
        if self.infinite:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x!s}, {self.y!s})"


def curve_rhs(curve: WeierstrassCurve, x: RatFunc) -> RatFunc:
    return RatFunc.const(4) * x ** 3 - RatFunc.const(curve.g2) * x - RatFunc.const(curve.g3)


def on_curve(curve: WeierstrassCurve, p: CurvePoint) -> bool:
    if p.infinite:
        return True
    return p.y * p.y == curve_rhs(curve, p.x)


def chord_tangent_add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Group law with Infinity as identity, for y^2 = 4x^3 - g2 x - g3.

    Distinct points: s = (y2 - y1)/(x2 - x1); doubling:
    s = (12 x1^2 - g2)/(2 y1); then x3 = s^2/4 - x1 - x2 and
    y3 = -(y1 + s (x3 - x1)).
    """
    if not on_curve(curve, p) or not on_curve(curve, q):
        raise NotOnCurve("chord_tangent_add requires points on the curve")
    if p.infinite:
        return q
    if q.infinite:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return CurvePoint.infinity()
        # p == q with y != 0: tangent slope
        s = (RatFunc.const(12) * p.x * p.x - RatFunc.const(curve.g2)) / (RatFunc.const(2) * p.y)
    else:
        s = (q.y - p.y) / (q.x - p.x)
    x3 = s * s / RatFunc.const(4) - p.x - q.x
    y3 = -(p.y + s * (x3 - p.x))
    return CurvePoint(x3, y3)


def check_weierstrass_solution(curve: WeierstrassCurve, a: RatFunc, b: RatFunc) -> bool:
    """True iff (b')^2 = a^2 (4b^3 - g2 b - g3) exactly in K."""
    a = _as_rf(a)
    b = _as_rf(b)
    db = b.derive()
    return db * db == a * a * curve_rhs(curve, b)


def paper_addition(curve: WeierstrassCurve, a, b, db, p0: CurvePoint):
    """Closed-form general solution from a particular solution b.

    Given the relation (db)^2 = a^2 (4b^3 - g2 b - g3) and a constant
    point p0 = (x0, y0) on the curve, returns (xi, eta) with

        s   = (db - a y0)/(a (b - x0))
        xi  = s^2/4 - b - x0
        eta = -(db + a y0)/(2a) + (3/2)(b + x0) s - s^3/4

    i.e. the chord-tangent sum of (b, db/a) and (x0, y0); the signs are
    pinned by that oracle (see module notes on the printed variants).
    """
    a = _as_rf(a)
    b = _as_rf(b)
    db = _as_rf(db)
    if a.is_zero():
        raise ZeroCoefficient("the field coefficient a must be nonzero")
    if not on_curve(curve, p0):
        raise NotOnCurve("p0 must lie on the curve")
    if p0.infinite:
        raise NotOnCurve("p0 must be an affine point")
    if db * db != a * a * curve_rhs(curve, b):
        raise RelationViolated("(db)^2 = a^2 (4b^3 - g2 b - g3) fails")
    x0, y0 = p0.x, p0.y
    if b == x0:
        raise PointCollision("b = x0: the chord formulas degenerate")
    s = (db - a * y0) / (a * (b - x0))
    xi = s * s / RatFunc.const(4) - b - x0
    eta = (-(db + a * y0) / (RatFunc.const(2) * a)
           + RatFunc.const(GaussianRational("3/2")) * (b + x0) * s
           - s ** 3 / RatFunc.const(4))
    return xi, eta


class TangencyReport(Record):
    __slots__ = ("displayed_residual", "tangent_residual", "displayed_is_tangent",
                 "adopted_coefficient")
    displayed_residual: MPoly
    tangent_residual: MPoly
    displayed_is_tangent: bool
    adopted_coefficient: str


def invariant_field_check(curve: WeierstrassCurve) -> TangencyReport:
    """Symbolic tangency audit of the curve's invariant vector field.

    Applies v = y d/dx + g(x) d/dy to F = y^2 - 4x^3 + g2 x + g3 for
    both g(x) = 12x^2 - g2 (the printed coefficient) and the halved
    g(x) = 6x^2 - g2/2, and reports the residuals.  Only the halved
    coefficient annihilates F identically.
    """
    x = MPoly.var("x")
    y = MPoly.var("y")
    f = y * y - 4 * x * x * x + curve.g2 * x + curve.g3
    fx = f.derivative("x")
    fy = f.derivative("y")
    displayed = y * fx + (12 * x * x - curve.g2) * fy
    halved = y * fx + (6 * x * x - curve.g2 / GaussianRational(2)) * fy
    return TangencyReport(
        displayed_residual=displayed,
        tangent_residual=halved,
        displayed_is_tangent=displayed.is_zero(),
        adopted_coefficient="y d/dx + (6x^2 - g2/2) d/dy",
    )


class PendulumParams:
    """Energy parameter of the pendulum family; h = +-1 is degenerate."""

    __slots__ = ("h",)

    def __init__(self, h):
        h = GaussianRational(h)
        if h == GaussianRational(1) or h == GaussianRational(-1):
            raise DegenerateEnergy("pendulum energy h = +-1 is degenerate")
        self.h = h


class PendulumAudit(Record):
    __slots__ = ("holds", "lhs", "rhs")
    holds: bool
    lhs: tuple
    rhs: tuple


def _pendulum_sides(h):
    """Both sides of the normal-form substitution, as polynomials in u.

    Substituting z = -4u - 2h/3 into -(z^3 + 2h z^2 + 1)/16 must give
    4u^3 - (h^2/3) u - (h^3/27 + 1/16); h is a constant or an MPoly.
    """
    u = MPoly.var("u")
    third = GaussianRational("1/3")
    sixteenth = GaussianRational("1/16")
    z = -4 * u - 2 * third * h
    lhs = -(z * z * z + 2 * h * z * z + 1) * sixteenth
    g2 = h * h * third
    g3 = h * h * h * GaussianRational("1/27") + sixteenth
    rhs = 4 * u * u * u - g2 * u - g3
    return lhs, rhs


def pendulum_substitution_identity() -> bool:
    """The normal-form substitution identity with h a free indeterminate."""
    lhs, rhs = _pendulum_sides(MPoly.var("h"))
    return lhs == rhs


def pendulum_normal_form(params: PendulumParams):
    """Weierstrass invariants (h^2/3, h^3/27 + 1/16) plus a symbolic audit.

    The audit re-runs the substitution z = -4u - 2h/3 with u an
    indeterminate and the given h plugged in, and checks the two sides
    agree exactly.
    """
    h = params.h
    g2 = h * h / GaussianRational(3)
    g3 = h * h * h / GaussianRational(27) + GaussianRational("1/16")
    curve = WeierstrassCurve(g2, g3)
    lhs, rhs = _pendulum_sides(h)
    audit = PendulumAudit(
        holds=(lhs == rhs),
        lhs=tuple(sorted(lhs.items())),
        rhs=tuple(sorted(rhs.items())),
    )
    return curve, audit
