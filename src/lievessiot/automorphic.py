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
hold one MatK.  Products, inverses, log_deriv, adjoint and
gauge_transform are evaluated as numerators in Z[i][t] over one
denominator and kept in that form (matrix.MatK); for a polynomial sigma,
l(sigma) = sigma' adj(sigma) / det(sigma).  A matrix of canonical
entries is cleared to one denominator once, when first used by these
formulas, and then holds both forms.  ==, + and - on kept matrices read
numerators, so the cocycle law above is checked with no canonical entry.
Each entry is made canonical once, when an entry of sigma or matrix is
first read, after the content that all numerators share with the
denominator is stripped (matrix._entries, when every numerator shares
the first one's gcd with the denominator): every numerator of
l(sigma^{-1}) = (sigma^{-1})' sigma = (adj' sigma - det' I) det / det^2
shares det with det^2, and one gcd takes it out for all entries.
det() is made canonical on request.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import BadBlockSize, DimensionMismatch, Singular, ToolkitError
from .matrix import MatK, _entry, _OneDen
from .ratfunc import RatFunc, _zmul, _zpow
from .records import Record

_set = object.__setattr__  # a _Square sets its fields through this


class _Square:
    """A square matrix over K, held as one MatK: kept over one denominator
    when built by the group law or by the formulas below, with its entries
    made canonical on first read.  Compared, hashed and printed by the
    MatK; immutable as a Record is."""

    __slots__ = ("n", "_mat")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, mat: MatK):
        if not mat.is_square:
            raise DimensionMismatch(f"{self._what} must be square")
        _set(self, "n", mat.rows)
        _set(self, "_mat", mat)

    def _one_den(self) -> _OneDen:
        """The matrix over one denominator; a matrix of canonical entries is
        cleared once, and then held with both forms."""
        m = self._mat
        if m._oneden is None:
            m = MatK._lazy(_OneDen.of(m.entries, self.n), m.entries)
            _set(self, "_mat", m)
        return m._oneden

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._mat == other._mat

    def __hash__(self):
        return hash(self._mat)

    def __repr__(self):
        return f"{type(self).__name__}({self._mat!s})"


class AutomorphicField(_Square):
    """A matrix A in gl(n, K), the right-hand side of x' = A x."""

    __slots__ = ()
    _what = "automorphic field"
    matrix = property(attrgetter("_mat"))


class GroupElement(_Square):
    """An element of GL(n, K): a square matrix with det != 0 in K."""

    __slots__ = ("_det", "_inverse")
    _what = "group element"
    sigma = property(attrgetter("_mat"))

    def __init__(self, sigma: MatK):
        super().__init__(sigma)
        try:
            _set(self, "_det", self._invert())
        except Singular:
            raise Singular("group element must be invertible over K") from None

    @staticmethod
    def _known(mat: MatK, det, inverse=None) -> "GroupElement":
        """The element of matrix mat whose determinant num / den, and inverse
        if any, the caller knows: det = (num, den), both nonzero in Z[i][t]."""
        g = object.__new__(GroupElement)
        _Square.__init__(g, mat)
        _set(g, "_det", det)
        _set(g, "_inverse", inverse)
        return g

    def _invert(self):
        """Sets the inverse, linked back to self, from one fraction-free
        Gauss-Jordan on sigma = N / d, and returns det sigma as (det N, d^n)."""
        q = self._one_den()
        inv, det_n = q.inverse()
        det = (det_n, _zpow(q.den, self.n))
        _set(self, "_inverse", GroupElement._known(inv.to_matk(), det[::-1], self))
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
        return GroupElement._known((self._one_den() * other._one_den()).to_matk(),
                                  (_zmul(a, c), _zmul(b, d)))


def log_deriv(sigma: GroupElement) -> AutomorphicField:
    """l(sigma) = sigma' * sigma^{-1}; vanishes on constant matrices."""
    return AutomorphicField((sigma._one_den().derive() * sigma.inverse()._one_den()).to_matk())


def adjoint(tau: GroupElement, a: AutomorphicField) -> AutomorphicField:
    """Adj_tau(A) = tau * A * tau^{-1}."""
    if tau.n != a.n:
        raise DimensionMismatch("adjoint size mismatch")
    return AutomorphicField((tau._one_den() * a._one_den() * tau.inverse()._one_den()).to_matk())


def gauge_transform(tau: GroupElement, a: AutomorphicField) -> AutomorphicField:
    """The gauge action of left translation: A -> tau A tau^{-1} + tau' tau^{-1}."""
    if tau.n != a.n:
        raise DimensionMismatch("gauge size mismatch")
    t = tau._one_den()
    return AutomorphicField(((t * a._one_den() + t.derive()) * tau.inverse()._one_den()).to_matk())


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
