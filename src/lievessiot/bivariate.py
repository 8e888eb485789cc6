"""Minimal exact bivariate polynomials over Q(i).

Just enough ring arithmetic to state two-variable polynomial identities
(the unit-sphere identity, curve tangency residuals, the pendulum
substitution audit).  Terms are a dict {(i, j): coefficient} for
monomials u**i * v**j.
"""

from __future__ import annotations

from .scalars import GaussianRational, ZERO, _as_gauss


class Poly2:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for key, c in (terms or {}).items():
            c = _as_gauss(c)
            if not c.is_zero():
                cleaned[key] = c
        self.terms = cleaned

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def u() -> "Poly2":
        return Poly2({(1, 0): 1})

    @staticmethod
    def v() -> "Poly2":
        return Poly2({(0, 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly2):
            return x
        if isinstance(x, (int, GaussianRational)):
            return Poly2.const(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return Poly2(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly2({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, ZERO) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly2.const(1)
        for _ in range(n):
            out = out * self
        return out

    def deriv_u(self) -> "Poly2":
        return Poly2({(i - 1, j): c * GaussianRational(i)
                      for (i, j), c in self.terms.items() if i > 0})

    def deriv_v(self) -> "Poly2":
        return Poly2({(i, j - 1): c * GaussianRational(j)
                      for (i, j), c in self.terms.items() if j > 0})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Poly2(0)"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            parts.append(f"({c})*u^{i}*v^{j}")
        return "Poly2(" + " + ".join(parts) + ")"
