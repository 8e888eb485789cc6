"""Automorphic vector fields on GL(n, K): logarithmic derivative, adjoint
action, gauge transformations and solution checks.

Conventions.  The logarithmic derivative is the *right* one,
l(sigma) = sigma' * sigma^{-1}, so fundamental matrices of x' = A x are
exactly the solutions of l(sigma) = A.  The cocycle law

    l(sigma * tau) = l(sigma) + Adj_sigma(l(tau))

holds exactly; with tau = sigma^{-1} it forces the inverse law
l(sigma^{-1}) = -Adj_{sigma^{-1}}(l(sigma)).  (Classical displays
sometimes print Adj_sigma in the inverse law; the cocycle-forced form is
the one implemented and tested.)

GL(n, K) is used as a group.  A GroupElement built from a matrix runs
one fraction-free Gauss-Jordan elimination at once: its last pivot gives
det, so det != 0 is checked once, eagerly, and its right half gives the
inverse, which is linked back.  Products and inverses take their
determinants from the group law (det(sigma tau) = det sigma det tau,
det(sigma^{-1}) = 1/det sigma) with no further check, and each element
computes its inverse at most once.  Group elements and automorphic fields
keep their matrix as numerators in Z[i][t] over one denominator, and
products, inverses, log_deriv, adjoint and gauge_transform are evaluated
and kept in that form; for a polynomial sigma,
l(sigma) = sigma' adj(sigma) / det(sigma).  Each entry is made canonical
once, when sigma, matrix or det() is first read.
"""

from __future__ import annotations

from .errors import BadBlockSize, DimensionMismatch, Singular, ToolkitError
from .matrix import MatK, _entry, _OneDen
from .ratfunc import RatFunc, _zmul, _zpow


class _TwoForms:
    """A square matrix over K in two forms, each built from the other at
    most once, on first use: a MatK of canonical entries and a _OneDen."""

    __slots__ = ("n", "_mat", "_oneden")

    def __init__(self, form):
        if isinstance(form, _OneDen):
            self.n, self._mat, self._oneden = len(form.rows), None, form
        elif form.is_square:
            self.n, self._mat, self._oneden = form.rows, form, None
        else:
            raise DimensionMismatch(f"{self._what} must be square")

    def _matk(self) -> MatK:
        if self._mat is None:
            self._mat = self._oneden.to_matk()
        return self._mat

    def _one_den(self) -> _OneDen:
        if self._oneden is None:
            self._oneden = _OneDen.of(self._mat.entries, self.n)
        return self._oneden


class AutomorphicField(_TwoForms):
    """A matrix A in gl(n, K), the right-hand side of x' = A x."""

    __slots__ = ()
    _what = "automorphic field"
    matrix = property(_TwoForms._matk)

    def __eq__(self, other):
        if not isinstance(other, AutomorphicField):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AutomorphicField({self.matrix!s})"


class GroupElement(_TwoForms):
    """An element of GL(n, K): a square matrix with det != 0 in K."""

    __slots__ = ("_det", "_inverse")
    _what = "group element"
    sigma = property(_TwoForms._matk)

    def __init__(self, sigma: MatK):
        super().__init__(sigma)
        try:
            self._det = self._invert()
        except Singular:
            raise Singular("group element must be invertible over K") from None

    @staticmethod
    def _known(form, det) -> "GroupElement":
        """The element of matrix form (a MatK or a _OneDen) whose determinant
        num / den the caller knows, as det = (num, den), both nonzero in Z[i][t]."""
        g = object.__new__(GroupElement)
        _TwoForms.__init__(g, form)
        g._det, g._inverse = det, None
        return g

    def _invert(self):
        """Sets the inverse, linked back to self, from one fraction-free
        Gauss-Jordan on sigma = N / d, and returns det sigma as (det N, d^n)."""
        q = self._one_den()
        inv, det_n = q.inverse()
        det = (det_n, _zpow(q.den, self.n))
        self._inverse = GroupElement._known(inv, det[::-1])
        self._inverse._inverse = self
        return det

    def det(self) -> RatFunc:
        """det sigma, made canonical on request."""
        return _entry(*self._det)

    def inverse(self) -> "GroupElement":
        if self._inverse is None:
            self._invert()
        return self._inverse

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        (a, b), (c, d) = self._det, other._det
        return GroupElement._known(self._one_den() * other._one_den(), (_zmul(a, c), _zmul(b, d)))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.sigma == other.sigma

    def __hash__(self):
        return hash(self.sigma)

    def __repr__(self):
        return f"GroupElement({self.sigma!s})"


def log_deriv(sigma: GroupElement) -> AutomorphicField:
    """l(sigma) = sigma' * sigma^{-1}; vanishes on constant matrices."""
    return AutomorphicField(sigma._one_den().derive() * sigma.inverse()._one_den())


def adjoint(tau: GroupElement, a: AutomorphicField) -> AutomorphicField:
    """Adj_tau(A) = tau * A * tau^{-1}."""
    if tau.n != a.n:
        raise DimensionMismatch("adjoint size mismatch")
    return AutomorphicField(tau._one_den() * a._one_den() * tau.inverse()._one_den())


def gauge_transform(tau: GroupElement, a: AutomorphicField) -> AutomorphicField:
    """The gauge action of left translation: A -> tau A tau^{-1} + tau' tau^{-1}."""
    if tau.n != a.n:
        raise DimensionMismatch("gauge size mismatch")
    t = tau._one_den()
    return AutomorphicField((t * a._one_den() + t.derive()) * tau.inverse()._one_den())


def check_automorphic_solution(a: AutomorphicField, sigma: GroupElement) -> bool:
    """True iff l(sigma) = A entrywise, i.e. sigma' = A sigma."""
    if a.n != sigma.n:
        raise DimensionMismatch("solution check size mismatch")
    return log_deriv(sigma) == a


def is_in_subalgebra(a: AutomorphicField, shape: str, m: int | None = None) -> bool:
    """Structural membership test in a concrete matrix Lie subalgebra.

    shape is one of 'skew_symmetric', 'upper_triangular', 'block_upper'
    (with block size m) or 'trace_zero'.
    """
    mat = a.matrix
    n = a.n
    if shape == "skew_symmetric":
        return mat.transpose() == -mat
    if shape == "upper_triangular":
        return all(mat[i, j].is_zero() for i in range(n) for j in range(i))
    if shape == "block_upper":
        if m is None:
            raise BadBlockSize("block_upper requires a block size m")
        _, _, a21, _ = mat.block_split(m)
        return a21.is_zero()
    if shape == "trace_zero":
        return mat.trace().is_zero()
    raise ToolkitError(f"unknown subalgebra shape {shape!r}")
