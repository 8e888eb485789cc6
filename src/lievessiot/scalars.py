"""Exact arithmetic in the constant field C = Q(i), the Gaussian rationals.

The wider theory assumes an algebraically closed constant field; Q(i) is
enough for every explicit formula implemented here (the SO(3) chart
formulas need i, nothing needs other algebraic numbers).  Values are
immutable; equality is structural equality of the canonical form (each
component a reduced Fraction with positive denominator, which Fraction
guarantees).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero

_RatLike = (int, Fraction)


class GaussianRational:
    """An element re + im*i of Q(i) with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot mix GaussianRational real part with imaginary part")
            self.re = re.re
            self.im = re.im
            return
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _RatLike):
            return GaussianRational(x)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # fast paths for real factors (the common case in matrix work)
        if not self.im:
            if not other.im:
                return GaussianRational(self.re * other.re)
            return GaussianRational(self.re * other.re, self.re * other.im)
        if not other.im:
            return GaussianRational(self.re * other.re, self.im * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise DivisionByZero("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re**2 + im**2, the multiplicative norm down to Q."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes as its Fraction, as == with int and Fraction requires
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        from .parsing import format_gaussian

        return format_gaussian(self)


def _as_gauss(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gq(re=0, im=0) -> GaussianRational:
    """Shorthand constructor; accepts ints, Fractions or 'a/b' strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(re, im)
