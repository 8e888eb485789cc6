"""Exact linear algebra over K = C(t).

MatK is a dense rectangular matrix of RatFunc entries.  Determinants and
inverses are fraction-free: the matrix is written as polynomial
numerator rows N over one common denominator d (the lcm of the entry
denominators), det runs Bareiss elimination on N and inverse runs
fraction-free Gauss-Jordan on [N | I] (Bareiss, Math. Comp. 22, 1968;
Nakos, Turner and Williams, 1997).  Every division inside is exact in
C[t], so no gcd is taken until each result entry is brought to canonical
form, once.  Pivots are the first row with a nonzero entry, which is
deterministic.  Ring operations (+, -, *) also run on entries of any
commutative ring that mixes with K, such as MPoly, which is how the
Riccati and flag tables evaluate their right-hand sides at symbolic
coordinates.
"""

from __future__ import annotations

from .errors import BadBlockSize, DimensionMismatch, PrincipalMinorVanishes, Singular
from .ratfunc import _ONE_POLY, RF_ONE, RF_ZERO, Poly, RatFunc, _as_rf
from .scalars import ONE, GaussianRational


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
        """Exact determinant: Bareiss on the numerators N, divided by d^n."""
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        q = _OneDen.of(self)
        den = _ONE_POLY
        for _ in range(self.rows):
            den = _times(den, q.den)
        return _entry(_bareiss_det(q.rows), den)

    def inverse(self) -> "MatK":
        """Exact inverse d * adj(N) / det(N) by fraction-free Gauss-Jordan; raises Singular."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        q = _OneDen.of(self)
        det_n, adj = _fraction_free_inverse(q.rows)
        return _OneDen([[_times(a, q.den) for a in row] for row in adj], det_n).to_matk()

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


# -- fraction-free kernels over C[t] -----------------------------------------


def _times(p: Poly, q: Poly) -> Poly:
    """p * q, skipping the product when either factor is the polynomial 1."""
    if q == _ONE_POLY:
        return p
    if p == _ONE_POLY:
        return q
    return p * q


def _exact_div(p: Poly, q: Poly) -> Poly:
    """p / q for a q known to divide p."""
    return p if q == _ONE_POLY else p.divmod(q)[0]


def _entry(num: Poly, den: Poly) -> RatFunc:
    """The canonical RatFunc num / den: one gcd, none for a constant den."""
    if den.degree > 0:
        return RatFunc(num, den)
    if den != _ONE_POLY:
        num = num * (ONE / den.coeffs[0])
    return RatFunc(num, _ONE_POLY, _canonical=True)


def _pivot_row(m, k):
    """Index of the first row at or below k with a nonzero entry in column k, or None."""
    return next((r for r in range(k, len(m)) if not m[r][k].is_zero()), None)


def _bareiss_det(rows) -> Poly:
    """det of a square matrix of Poly rows by Bareiss elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    prev = _ONE_POLY
    negate = False
    for k in range(n):
        r = _pivot_row(m, k)
        if r is None:
            return Poly()
        if r != k:
            m[k], m[r] = m[r], m[k]
            negate = not negate
        pivot = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = _exact_div(pivot * m[i][j] - f * m[k][j], prev)
        prev = pivot
    return -prev if negate else prev


def _fraction_free_inverse(rows):
    """(D, R) with N^{-1} = R / D for square Poly rows N; raises Singular.

    Fraction-free Gauss-Jordan on [N | I]: at step k every row other than
    k becomes (pivot * row - row[k] * pivot row) / previous pivot, an
    exact division.  At the end the right half is D N^{-1} with D the
    last pivot, which is +-det N.  Columns up to k are left as they are:
    no later step reads them, and only the right half is returned.
    """
    n = len(rows)
    zero = Poly()
    m = [list(r) + [_ONE_POLY if i == j else zero for j in range(n)]
         for i, r in enumerate(rows)]
    prev = _ONE_POLY
    for k in range(n):
        r = _pivot_row(m, k)
        if r is None:
            raise Singular("matrix is singular over K")
        m[k], m[r] = m[r], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            for j in range(k + 1, 2 * n):
                row[j] = _exact_div(pivot * row[j] - f * pivot_row[j], prev)
        prev = pivot
    return prev, [row[n:] for row in m]


class _OneDen:
    """A matrix over K as polynomial numerator rows over one denominator.

    Products, sums and the derivative stay in this form, so a formula
    such as sigma' sigma^{-1} is evaluated in C[t] and each entry of the
    result is brought to canonical form once, by to_matk.  The
    denominator need not be monic or reduced against the rows.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows, den: Poly):
        self.rows = rows
        self.den = den

    @staticmethod
    def of(mat: MatK) -> "_OneDen":
        """N / d with d the monic lcm of the entry denominators."""
        den = _ONE_POLY
        for e in mat.entries:
            if e.den != den and e.den != _ONE_POLY:
                den = e.den if den == _ONE_POLY else den * e.den.divmod(den.gcd(e.den))[0]
        rows = [[_times(e.num, _exact_div(den, e.den))
                 for e in mat.entries[i * mat.cols:(i + 1) * mat.cols]]
                for i in range(mat.rows)]
        return _OneDen(rows, den)

    def __mul__(self, other: "_OneDen") -> "_OneDen":
        cols = range(len(other.rows[0]))
        out = []
        for arow in self.rows:
            row = []
            for j in cols:
                acc = Poly()
                for a, brow in zip(arow, other.rows):
                    if not a.is_zero():
                        acc = acc + a * brow[j]
                row.append(acc)
            out.append(row)
        return _OneDen(out, _times(self.den, other.den))

    def __add__(self, other: "_OneDen") -> "_OneDen":
        return _OneDen([[_times(a, other.den) + _times(b, self.den) for a, b in zip(r, s)]
                        for r, s in zip(self.rows, other.rows)], _times(self.den, other.den))

    def derive(self) -> "_OneDen":
        """(N / d)' = (N' d - N d') / d^2."""
        d, dd = self.den, self.den.derivative()
        return _OneDen([[_times(a.derivative(), d) - a * dd for a in r] for r in self.rows],
                       _times(d, d))

    def to_matk(self) -> MatK:
        return MatK(len(self.rows), len(self.rows[0]),
                    [_entry(a, self.den) for r in self.rows for a in r])
