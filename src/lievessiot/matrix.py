"""Exact linear algebra over K = C(t).

MatK is a dense rectangular matrix of RatFunc entries.  Inversion and
determinants run Gaussian elimination with exact pivoting: the pivot is
the first row with a nonzero entry, which is deterministic and safe
because arithmetic is exact.  Ring operations (+, -, *) also run on
entries of any commutative ring that mixes with K, such as MPoly, which
is how the Riccati and flag tables evaluate their right-hand sides at
symbolic coordinates.
"""

from __future__ import annotations

from .errors import BadBlockSize, DimensionMismatch, PrincipalMinorVanishes, Singular
from .ratfunc import RF_ONE, RF_ZERO, RatFunc, _as_rf
from .scalars import GaussianRational


class MatK:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [RatFunc.const(e) if isinstance(e, (int, GaussianRational)) else e
                   for e in entries]
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @staticmethod
    def from_rows(rows) -> "MatK":
        if not rows:
            raise DimensionMismatch("empty matrix")
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return MatK(len(rows), ncols, flat)

    @staticmethod
    def identity(n: int) -> "MatK":
        return MatK(n, n, [RF_ONE if i == j else RF_ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "MatK":
        return MatK(rows, cols, [RF_ZERO] * (rows * cols))

    def __getitem__(self, ij) -> RatFunc:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return MatK(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return MatK(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return MatK(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            s = _as_rf(other)
            return MatK(self.rows, self.cols, [a * s for a in self.entries])
        if not isinstance(other, MatK):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            arow = self.entries[i * self.cols:(i + 1) * self.cols]
            for j in range(other.cols):
                acc = RF_ZERO
                for k in range(self.cols):
                    a = arow[k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other.entries[k * other.cols + j]
                out.append(acc)
        return MatK(self.rows, other.cols, out)

    def __rmul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self * other
        return NotImplemented

    def transpose(self) -> "MatK":
        return MatK(self.cols, self.rows,
                    [self[j, i] for i in range(self.cols) for j in range(self.rows)])

    def trace(self) -> RatFunc:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = RF_ZERO
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def derive(self) -> "MatK":
        """Entrywise d/dt."""
        return MatK(self.rows, self.cols, [a.derive() for a in self.entries])

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def det(self) -> RatFunc:
        """Exact determinant by Gaussian elimination over K."""
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        m = [self.row(i) for i in range(n)]
        det = RF_ONE
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if not m[r][col].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                return RF_ZERO
            if pivot_row != col:
                m[col], m[pivot_row] = m[pivot_row], m[col]
                det = -det
            pivot = m[col][col]
            det = det * pivot
            for r in range(col + 1, n):
                factor = m[r][col] / pivot
                if factor.is_zero():
                    continue
                for c in range(col, n):
                    m[r][c] = m[r][c] - factor * m[col][c]
        return det

    def inverse(self) -> "MatK":
        """Exact inverse by Gauss-Jordan elimination; raises Singular."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        m = [self.row(i) + MatK.identity(n).row(i) for i in range(n)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if not m[r][col].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                raise Singular("matrix is singular over K")
            m[col], m[pivot_row] = m[pivot_row], m[col]
            pivot = m[col][col]
            m[col] = [e / pivot for e in m[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = m[r][col]
                if factor.is_zero():
                    continue
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        return MatK.from_rows([row[n:] for row in m])

    def principal_minors(self):
        """The n leading principal minors (top-left k x k determinants)."""
        if not self.is_square:
            raise DimensionMismatch("principal minors of a non-square matrix")
        n = self.rows
        out = []
        for k in range(1, n + 1):
            sub = MatK(k, k, [self[i, j] for i in range(k) for j in range(k)])
            out.append(sub.det())
        return out

    def block_split(self, m: int):
        """Split a square matrix into (A11, A12, A21, A22) with A11 of size m x m."""
        if not self.is_square:
            raise DimensionMismatch("block split of a non-square matrix")
        n = self.rows
        if not 1 <= m < n:
            raise BadBlockSize(f"block size {m} invalid for {n}x{n} matrix")
        a11 = MatK(m, m, [self[i, j] for i in range(m) for j in range(m)])
        a12 = MatK(m, n - m, [self[i, j] for i in range(m) for j in range(m, n)])
        a21 = MatK(n - m, m, [self[i, j] for i in range(m, n) for j in range(m)])
        a22 = MatK(n - m, n - m, [self[i, j] for i in range(m, n) for j in range(m, n)])
        return a11, a12, a21, a22

    @staticmethod
    def block_join(a11: "MatK", a12: "MatK", a21: "MatK", a22: "MatK") -> "MatK":
        rows = []
        for i in range(a11.rows):
            rows.append(a11.row(i) + a12.row(i))
        for i in range(a21.rows):
            rows.append(a21.row(i) + a22.row(i))
        return MatK.from_rows(rows)

    def lu_flag_decompose(self):
        """Unique A = L*U with L lower unitriangular, U upper triangular.

        Requires all leading principal minors nonzero in K; failure reports
        the 1-based index of the first vanishing minor so the caller can
        permute basis vectors and retry.
        """
        if not self.is_square:
            raise DimensionMismatch("LU decomposition of a non-square matrix")
        n = self.rows
        u = [self.row(i) for i in range(n)]
        lower = [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = u[col][col]
            if pivot.is_zero():
                raise PrincipalMinorVanishes(col + 1)
            for r in range(col + 1, n):
                factor = u[r][col] / pivot
                lower[r][col] = factor
                if factor.is_zero():
                    continue
                for c in range(col, n):
                    u[r][c] = u[r][c] - factor * u[col][c]
        return MatK.from_rows(lower), MatK.from_rows(u)

    def lie_bracket(self, other: "MatK") -> "MatK":
        """Matrix commutator [a, b] = ab - ba."""
        if not (self.is_square and other.is_square and self.rows == other.rows):
            raise DimensionMismatch("Lie bracket needs square matrices of equal size")
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        from .parsing import format_matrix

        return f"MatK({format_matrix(self)!r})"

    def __str__(self):
        from .parsing import format_matrix

        return format_matrix(self)
