"""Sparse multivariate polynomials over any exact coefficient ring.

An MPoly is a dict {monomial: coeff}.  A monomial is a sorted tuple of
variable keys, a key repeated k times standing for that variable to the
k-th power (the empty tuple is the constant term); a coefficient is any
exact ring element with is_zero(), such as GaussianRational or RatFunc,
and ints are read as Gaussian rationals.  Zero coefficients are never
stored, so == is structural equality.  Operands that are not an MPoly
count as constants, which lets MatK run its algorithms on MPoly entries.
"""

from __future__ import annotations

from .scalars import GaussianRational, ONE


def _coeff(c):
    return GaussianRational(c) if isinstance(c, int) else c


def _times(c1, c2):
    # a variable's unit coefficient multiplies for free
    return c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2


def _as_mpoly(x) -> "MPoly":
    return x if isinstance(x, MPoly) else MPoly({(): x})


class MPoly(dict):
    __slots__ = ()

    def __init__(self, terms=()):
        super().__init__()
        for mono, c in terms.items() if isinstance(terms, dict) else terms:
            mono = tuple(sorted(mono))
            c = self[mono] + c if mono in self else _coeff(c)
            if c.is_zero():
                self.pop(mono, None)
            else:
                self[mono] = c

    @staticmethod
    def var(key) -> "MPoly":
        return MPoly({(key,): ONE})

    def is_zero(self) -> bool:
        return not self

    def __add__(self, other):
        return MPoly([*self.items(), *_as_mpoly(other).items()])

    __radd__ = __add__

    def __neg__(self):
        return MPoly({mono: -c for mono, c in self.items()})

    def __sub__(self, other):
        return self + -_as_mpoly(other)

    def __rsub__(self, other):
        return _as_mpoly(other) + -self

    def __mul__(self, other):
        return MPoly((m1 + m2, _times(c1, c2))
                     for m1, c1 in self.items() for m2, c2 in _as_mpoly(other).items())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = MPoly({(): ONE})
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, var) -> "MPoly":
        """Partial derivative with respect to the variable key var."""
        return MPoly((mono[:k] + mono[k + 1:], c * mono.count(var))
                     for mono, c in self.items() if var in mono
                     for k in (mono.index(var),))

    def __eq__(self, other):
        return dict.__eq__(self, _as_mpoly(other))

    def __ne__(self, other):
        return not self == other
