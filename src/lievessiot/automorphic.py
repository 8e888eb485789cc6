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
one fraction-free Gauss-Jordan elimination: its last pivot gives det,
so det != 0 is checked once, and its right half gives the inverse,
which is kept and linked back.  Products and inverses take their
determinants from the group law (det(sigma tau) = det sigma det tau,
det(sigma^{-1}) = 1/det sigma) with no further check, and each element
computes its inverse at most once.  Each element keeps its matrix as
numerators in Z[i][t] over one denominator, and products, log_deriv,
adjoint and gauge_transform are evaluated in that form and reduce each
entry of the result once; for a polynomial sigma,
l(sigma) = sigma' adj(sigma) / det(sigma).
"""

from __future__ import annotations

from .errors import BadBlockSize, DimensionMismatch, Singular, ToolkitError
from .matrix import MatK, _entry, _OneDen
from .ratfunc import _zpow


class AutomorphicField:
    """A matrix A in gl(n, K), the right-hand side of x' = A x."""

    __slots__ = ("n", "matrix")

    def __init__(self, matrix: MatK):
        if not matrix.is_square:
            raise DimensionMismatch("automorphic field must be square")
        self.n = matrix.rows
        self.matrix = matrix

    def __eq__(self, other):
        if not isinstance(other, AutomorphicField):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AutomorphicField({self.matrix!s})"


class GroupElement:
    """An element of GL(n, K): a square matrix with det != 0 in K."""

    __slots__ = ("n", "sigma", "_det", "_inverse", "_oneden")

    def __init__(self, sigma: MatK):
        if not sigma.is_square:
            raise DimensionMismatch("group element must be square")
        self.n = sigma.rows
        self.sigma = sigma
        self._oneden = None
        try:
            det_n, d_n = self._invert()
        except Singular:
            raise Singular("group element must be invertible over K") from None
        self._det = _entry(det_n, d_n)

    @staticmethod
    def _known(sigma: MatK, det) -> "GroupElement":
        """The element sigma, whose nonzero determinant det the caller knows."""
        g = object.__new__(GroupElement)
        g.n = sigma.rows
        g.sigma = sigma
        g._det = det
        g._inverse = None
        g._oneden = None
        return g

    def _one_den(self) -> _OneDen:
        """sigma as numerators over one denominator, built once."""
        if self._oneden is None:
            self._oneden = _OneDen.of(self.sigma)
        return self._oneden

    def _invert(self):
        """Sets the inverse, linked back to self, from one fraction-free
        Gauss-Jordan on sigma = N / d, and returns (det N, d^n)."""
        q = self._one_den()
        inv, det_n = q.inverse()
        d_n = _zpow(q.den, self.n)
        self._inverse = GroupElement._known(inv.to_matk(), _entry(d_n, det_n))
        self._inverse._inverse = self
        return det_n, d_n

    def inverse(self) -> "GroupElement":
        if self._inverse is None:
            self._invert()
        return self._inverse

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        product = (self._one_den() * other._one_den()).to_matk()
        return GroupElement._known(product, self._det * other._det)

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
    return AutomorphicField((sigma._one_den().derive() * sigma.inverse()._one_den()).to_matk())


def adjoint(tau: GroupElement, a: AutomorphicField) -> AutomorphicField:
    """Adj_tau(A) = tau * A * tau^{-1}."""
    if tau.n != a.n:
        raise DimensionMismatch("adjoint size mismatch")
    product = tau._one_den() * _OneDen.of(a.matrix) * tau.inverse()._one_den()
    return AutomorphicField(product.to_matk())


def gauge_transform(tau: GroupElement, a: AutomorphicField) -> AutomorphicField:
    """The gauge action of left translation: A -> tau A tau^{-1} + tau' tau^{-1}."""
    if tau.n != a.n:
        raise DimensionMismatch("gauge size mismatch")
    t = tau._one_den()
    product = (t * _OneDen.of(a.matrix) + t.derive()) * tau.inverse()._one_den()
    return AutomorphicField(product.to_matk())


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
