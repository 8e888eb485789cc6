"""Exact linear algebra over K = C(t).

MatK is a dense rectangular matrix of RatFunc entries.  Determinants and
inverses are fraction-free: the matrix is written as numerator rows N in
Z[i][t] over one common denominator d (an integer times the primitive
lcm of the entry denominators), and one fraction-free Gauss-Jordan
elimination runs on N for det and on [N | I] for inverse (Bareiss, Math.
Comp. 22, 1968; Nakos, Turner and Williams, 1997).  Z[i][t] is an integral
domain and every division inside is exact there, so the eliminations
run on Gaussian-integer coefficient lists, in Python ints, with no
Fraction and no gcd.  Pivots are the first row with a nonzero entry,
which is deterministic.  A result over one denominator first loses the
content that all its numerators share with the denominator: the first
numerator's gcd with the denominator gives it, and exact divisions
check that every later numerator shares it (when one does not, nothing
is stripped).  Then each entry is brought to canonical form once, by one
primitive gcd against what is left, which the first prime mostly
certifies coprime.  Sums and differences of matrices over K
take the same route: both operands are written over one common
denominator, their numerators are added in Z[i][t] and the result is
made canonical the same way.  Ring operations (+, -, *) also run,
entry by entry, on entries of any commutative ring that mixes with K,
such as MPoly, which is how the Riccati and flag tables evaluate their
right-hand sides at symbolic coordinates.
"""

from __future__ import annotations

import math

from .errors import BadBlockSize, DimensionMismatch, PrincipalMinorVanishes, Singular
from .ratfunc import (_ZONE, RF_ONE, RF_ZERO, RatFunc, _as_rf, _clear, _content, _from_zi,
                      _zderiv, _zdot, _zgcd, _zmul, _zneg, _zpow, _zquo)
from .scalars import GaussianRational

_SCALARS = (int, GaussianRational, RatFunc)


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

    def _sum(self, other, negate: bool):
        if not isinstance(other, MatK):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {'subtraction' if negate else 'addition'} shape mismatch")
        both = self.entries + other.entries
        if not all(isinstance(e, RatFunc) for e in both):
            return MatK(self.rows, self.cols,
                        [a - b if negate else a + b for a, b in zip(self.entries, other.entries)])
        q = _OneDen.of(both, len(self.entries))
        s = [(-1, 0)] if negate else _ZONE
        return MatK(self.rows, self.cols,
                    _entries([_zdot(((a, _ZONE), (b, s))) for a, b in zip(*q.rows)], q.den))

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return MatK(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
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
        if isinstance(other, _SCALARS):
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
        """Exact determinant: det N / d^n, det N from _gauss_jordan on N."""
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        q = _OneDen.of(self.entries, self.cols)
        try:
            pivot, negate = _gauss_jordan(q.rows, self.rows)
        except Singular:
            return RF_ZERO
        return _entry(_zneg(pivot) if negate else pivot, _zpow(q.den, self.rows))

    def inverse(self) -> "MatK":
        """Exact inverse d * adj(N) / det(N) by fraction-free Gauss-Jordan; raises Singular."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        return _OneDen.of(self.entries, self.cols).inverse()[0].to_matk()

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


# -- fraction-free kernels over Z[i][t] --------------------------------------


def _entries(nums, den):
    """The canonical RatFuncs num / den for each num in Z[i][t], den nonzero.

    With two or more nonzero numerators over a nonconstant den, a content
    that all of them share with den goes first (_strip_content), so the
    numerators of a formula such as (sigma^{-1})' sigma, which all share
    a factor with den, take one non-unit gcd between them.  Then each
    entry takes one primitive gcd against what is left of den, which also
    gives the exact quotients (_zgcd) and is mostly certified coprime by
    its first prime, then division by the remaining denominator's leading
    Gaussian integer.  Entries that share all of den share its Poly.
    """
    nonzero = [k for k, num in enumerate(nums) if num]
    first = None
    if len(nonzero) > 1 and len(den) > 1:
        nums, den, first = _strip_content(nums, den, nonzero)
    lead = den[-1]
    whole = None
    out = []
    for k, num in enumerate(nums):
        if not num:
            out.append(RF_ZERO)
            continue
        _, num, d = first[1] if first and k == first[0] else _zgcd(num, den)
        if d is den:
            if whole is None:
                whole = _from_zi(den, lead)
            out.append(RatFunc._known(_from_zi(num, lead), whole))
        else:
            out.append(RatFunc._known(_from_zi(num, d[-1]), _from_zi(d, d[-1])))
    return out


def _strip_content(nums, den, nonzero):
    """(nums / g, den / g, (f, _zgcd(nums[f], den))) for f = nonzero[0]
    and g = gcd(nums[f], den), when g divides every later numerator; g is
    then the content that all of them share with den.  The same gcd gives
    entry f in lowest terms, so that entry takes no second gcd.  When g is
    a unit or does not divide a later numerator, nums and den come back
    unchanged and each entry takes its gcd against the whole den.
    """
    first = nonzero[0]
    known = g, _, den_q = _zgcd(nums[first], den)
    if len(g) == 1:
        return nums, den, (first, known)
    out = list(nums)
    for k in nonzero[1:]:
        if (q := _zquo(nums[k], g)) is None:
            return nums, den, (first, known)
        out[k] = q
    return out, den_q, (first, known)


def _entry(num, den) -> RatFunc:
    """The canonical RatFunc num / den for num, den in Z[i][t], den nonzero."""
    return _entries((num,), den)[0]


def _gauss_jordan(m, n):
    """(D, negate) for the rows m over Z[i][t], at least n columns wide,
    brought in place to fraction-free Gauss-Jordan form over their first
    n columns; raises Singular when those columns are dependent.

    At step k the pivot is the first row at or below k with a nonzero
    entry in column k, which is deterministic, and every other row
    becomes (pivot * row - row[k] * pivot row) / previous pivot, an exact
    division.  The last pivot D is then the determinant of the first n
    columns up to the sign of the row swaps (-D if negate else D), and
    on [N | I] the right half is D N^{-1}.  Columns up to k are left as
    they are: no later step reads them.
    """
    prev = _ZONE
    negate = False
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            raise Singular("matrix is singular over K")
        if r != k:
            m[k], m[r] = m[r], m[k]
            negate = not negate
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = _zneg(row[k])
            for j in range(k + 1, len(pivot_row)):
                row[j] = _zquo(_zdot(((pivot, row[j]), (f, pivot_row[j]))), prev)
        prev = pivot
    return prev, negate


class _OneDen:
    """A matrix over K as numerator rows in Z[i][t] over one denominator.

    Products, sums, the derivative and the eliminations stay in this
    form and in Python ints, so a formula such as sigma' sigma^{-1} is
    evaluated in Z[i][t] and each entry of the result is brought to
    canonical form once, by to_matk.  The denominator need not be monic,
    primitive or reduced against the rows.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows, den):
        self.rows = rows
        self.den = den

    @staticmethod
    def of(entries, cols: int) -> "_OneDen":
        """N / d for the RatFunc entries, in rows of cols, with d = s P: P the
        primitive lcm of the entry denominators in Z[i][t] and s the lcm of
        the integers that clear their scalars.

        An entry's denominator, cleared to b den = g p with g its content
        and p primitive, is p * norm(g) / (b conj(g)); its numerator,
        cleared, is n / a.  Every p divides P in Z[i][t] (Gauss's lemma).
        """
        dens = {}  # id of a denominator -> (p, b conj(g), norm(g)); entries often share one
        for e in entries:
            if id(e.den) not in dens:
                dd, b = _clear(e.den)
                g = _content(dd)
                dens[id(e.den)] = (_zquo(dd, [g]), (b * g[0], -b * g[1]), g[0] * g[0] + g[1] * g[1])
        lcm = _ZONE
        for p, _, _ in dens.values():
            if p != lcm and p != _ZONE:
                lcm = p if lcm == _ZONE else _zmul(lcm, _zgcd(lcm, p)[2])
        cofactors = {key: _zquo(lcm, p) for key, (p, _, _) in dens.items()}
        nums = [_clear(e.num) for e in entries]
        s = math.lcm(*(a * dens[id(e.den)][2] for (_, a), e in zip(nums, entries)))
        flat = []
        for (n, a), e in zip(nums, entries):
            _, (ur, ui), w = dens[id(e.den)]
            c = s // (a * w)
            flat.append(_zmul(_zmul(n, [(ur * c, ui * c)]), cofactors[id(e.den)]))
        return _OneDen([flat[i:i + cols] for i in range(0, len(flat), cols)],
                       _zmul([(s, 0)], lcm))

    def __mul__(self, other: "_OneDen") -> "_OneDen":
        cols = range(len(other.rows[0]))
        return _OneDen([[_zdot([(a, brow[j]) for a, brow in zip(arow, other.rows)]) for j in cols]
                        for arow in self.rows], _zmul(self.den, other.den))

    def __add__(self, other: "_OneDen") -> "_OneDen":
        d, e = self.den, other.den
        return _OneDen([[_zdot(((a, e), (b, d))) for a, b in zip(r, s)]
                        for r, s in zip(self.rows, other.rows)], _zmul(d, e))

    def derive(self) -> "_OneDen":
        """(N / d)' = (N' d - N d') / d^2, and N' / d for a constant d."""
        d = self.den
        if len(d) == 1:
            return _OneDen([[_zderiv(a) for a in r] for r in self.rows], d)
        dd = _zneg(_zderiv(d))
        return _OneDen([[_zdot(((_zderiv(a), d), (a, dd))) for a in r] for r in self.rows],
                       _zmul(d, d))

    def inverse(self):
        """(d R / D, det N) for this N / d, with N^{-1} = R / D the right half
        of _gauss_jordan on [N | I]; raises Singular."""
        n = len(self.rows)
        m = [list(r) + [_ZONE if i == j else [] for j in range(n)] for i, r in enumerate(self.rows)]
        pivot, negate = _gauss_jordan(m, n)
        return (_OneDen([[_zmul(self.den, a) for a in r[n:]] for r in m], pivot),
                _zneg(pivot) if negate else pivot)

    def to_matk(self) -> MatK:
        return MatK(len(self.rows), len(self.rows[0]),
                    _entries([a for r in self.rows for a in r], self.den))
