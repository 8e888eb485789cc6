"""Lie-Vessiot systems on grassmanians and flag varieties.

Plückerian coordinates Lambda = Y U^{-1} (U the top m x m block of a
spanning n x m matrix) satisfy the matrix Riccati equation

    Lambda' = A21 + A22 Lambda - Lambda A11 - Lambda A12 Lambda,

and the strictly-lower flag coordinates (the unit-lower factor of the
LU decomposition of a fundamental matrix) satisfy the polynomial flag
equation (cubic for n <= 3; see flag_rhs).  Both are x' = A x projected
to G/H, H the stabilizer of the base point (Carinena, Grabowski and
Marmo, Lie-Scheffers Systems, 2000), and one split serves both.  At the
unit-lower chart point g, [[I, 0], [Lambda, I]] for m-planes and L for
flags, A g = W + g V with V in h = Lie(H), block upper resp. upper
triangular, and W zero on h (_sweep).  riccati_rhs is W21, flag_rhs is
W, and the tables are W at a symbolic g; the coordinates solve their
system iff g' = W; the Lie-Kolchin reduction by tau = g^{-1} gauges A
to B = g^{-1}(A g - g') = V + tau (W - g'), which lies in h iff g' = W.

Charts are fixed to the standard basis order.  When a chart minor
vanishes the operation fails with the offending index rather than
silently permuting; the CLI exposes an explicit --permute flag.
"""

from __future__ import annotations

import warnings

from .automorphic import AutomorphicField, GroupElement
from .errors import BadBlockSize, ChartMinorVanishes, DimensionMismatch, Singular
from .matrix import MatK
from .mpoly import MPoly
from .ratfunc import _ZONE, RF_ONE, RF_ZERO, _as_rf
from .records import Record
from .scalars import GaussianRational


class NotASolutionWarning(UserWarning):
    """Reduction input failed its solution check; the shape guarantee is void."""


class PlaneCoords:
    """Affine chart on the grassmanian of m-planes in K^n: an (n-m) x m matrix."""

    __slots__ = ("n", "m", "Lambda")

    def __init__(self, n: int, m: int, Lambda: MatK):
        if not 1 <= m < n:
            raise BadBlockSize(f"plane dimension {m} invalid for rank {n}")
        if (Lambda.rows, Lambda.cols) != (n - m, m):
            raise DimensionMismatch(f"plane coordinates must be {(n - m)}x{m}")
        self.n = n
        self.m = m
        self.Lambda = Lambda

    def __eq__(self, other):
        if not isinstance(other, PlaneCoords):
            return NotImplemented
        return (self.n, self.m, self.Lambda) == (other.n, other.m, other.Lambda)

    def __repr__(self):
        return f"PlaneCoords(n={self.n}, m={self.m}, {self.Lambda!s})"


class FlagCoords:
    """Affine chart on the flag variety: a unit-lower-triangular matrix."""

    __slots__ = ("n", "lam")

    def __init__(self, lam: MatK):
        if not lam.is_square:
            raise DimensionMismatch("flag coordinates must be square")
        n = lam.rows
        for i in range(n):
            if lam[i, i] != RF_ONE:
                raise DimensionMismatch("flag coordinate matrix must have unit diagonal")
            for j in range(i + 1, n):
                if not lam[i, j].is_zero():
                    raise DimensionMismatch("flag coordinate matrix must be lower triangular")
        self.n = n
        self.lam = lam

    def __eq__(self, other):
        if not isinstance(other, FlagCoords):
            return NotImplemented
        return self.lam == other.lam

    def __repr__(self):
        return f"FlagCoords({self.lam!s})"


class RiccatiSystem:
    """The matrix Riccati system of the m-plane chart attached to an automorphic field A."""

    __slots__ = ("n", "m", "A")

    def __init__(self, A: MatK, m: int):
        self.n = A.rows
        self.m = m
        self.A = A

    def unknowns(self):
        """Unknown index pairs (i, j), 1-based, i = 1..n-m, j = 1..m."""
        return [(i, j) for j in range(1, self.m + 1) for i in range(1, self.n - self.m + 1)]


class FlagSystem:
    """The cubic flag system attached to an automorphic field A."""

    __slots__ = ("n", "A")

    def __init__(self, A: MatK):
        if not A.is_square:
            raise DimensionMismatch("flag system needs a square matrix")
        self.n = A.rows
        self.A = A

    def unknowns(self):
        """Strictly-lower index pairs (i, j), 1-based, i > j."""
        return [(i, j) for j in range(1, self.n + 1) for i in range(j + 1, self.n + 1)]


def _sweep(a: MatK, g: MatK, m: int | None = None):
    """(W, V) with A g = W + g V, V in h and W zero on h, for g unit
    block-lower: blocks (m, n - m) for m-planes, 1 x 1 for flags (m None).

    (i, j) lies off h iff i's block comes after j's.  One forward
    substitution over M = A g gives X = W + V, whose parts have disjoint
    supports: X_ij = M_ij - sum_k g_ik X_kj, over the k in a block
    before i's block and not after j's.
    """
    n = a.rows
    # the first index of i's block, and one past the last index of j's
    start = [i if m is None else 0 if i < m else m for i in range(n)]
    end = [j + 1 if m is None else m if j < m else n for j in range(n)]
    prod = a * g
    x = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = prod[i, j]
            for k in range(min(start[i], end[j])):
                acc = acc - g[i, k] * x[k][j]
            x[i][j] = acc
    cells = [(i, j) for i in range(n) for j in range(n)]
    return (MatK(n, n, [x[i][j] if start[i] >= end[j] else RF_ZERO for i, j in cells]),
            MatK(n, n, [RF_ZERO if start[i] >= end[j] else x[i][j] for i, j in cells]))


def _plane_point(plane: PlaneCoords) -> MatK:
    """The chart point g = [[I, 0], [Lambda, I]] of the plane."""
    n, m = plane.n, plane.m
    return MatK.block_join(MatK.identity(m), MatK.zero(m, n - m), plane.Lambda, MatK.identity(n - m))


def riccati_generate(a: AutomorphicField, m: int) -> RiccatiSystem:
    """Build the matrix Riccati system of the m-plane chart from A."""
    if m is None or not 1 <= m < a.n:
        raise BadBlockSize(f"plane dimension {m} invalid for rank {a.n}")
    return RiccatiSystem(a.matrix, m)


def riccati_rhs(sys: RiccatiSystem, plane: PlaneCoords) -> MatK:
    """A21 + A22 L - L A11 - L A12 L: the block W21 of _sweep at the plane's chart point."""
    if (plane.n, plane.m) != (sys.n, sys.m):
        raise DimensionMismatch("plane does not match system shape")
    return _sweep(sys.A, _plane_point(plane), sys.m)[0].block_split(sys.m)[2]


def riccati_check_solution(sys: RiccatiSystem, plane: PlaneCoords) -> bool:
    """True iff Lambda' equals the Riccati right-hand side entrywise."""
    return plane.Lambda.derive() == riccati_rhs(sys, plane)


def plucker_coords(x: MatK, m: int) -> PlaneCoords:
    """Chart coordinates Y U^{-1} of the span of the columns of the n x m matrix x."""
    n = x.rows
    if x.cols != m or not 1 <= m < n:
        raise BadBlockSize(f"expected an n x m matrix with 1 <= m < n, got {x.rows}x{x.cols}")
    top = MatK(m, m, [x[i, j] for i in range(m) for j in range(m)])
    try:
        top_inv = top.inverse()
    except Singular:
        raise ChartMinorVanishes("top m x m minor vanishes; the plane leaves the chart") from None
    bottom = MatK(n - m, m, [x[i, j] for i in range(m, n) for j in range(m)])
    return PlaneCoords(n, m, bottom * top_inv)


def flag_coords(tau: GroupElement) -> FlagCoords:
    """The unit-lower factor of the LU decomposition of tau."""
    lower, _ = tau.sigma.lu_flag_decompose()
    return FlagCoords(lower)


def flag_generate(a: AutomorphicField) -> FlagSystem:
    return FlagSystem(a.matrix)


def riccati_table(sys: RiccatiSystem):
    """Coefficient tables of the matrix Riccati system, one per unknown.

    Returns {(i, j): MPoly}, the monomials being sorted tuples of unknown
    index pairs (the empty tuple is the constant term): riccati_rhs
    evaluated at the symbolic chart Lambda = [var (i, j)], 1-based.
    """
    lam = MatK(sys.n - sys.m, sys.m, [MPoly.var(ij) for ij in sorted(sys.unknowns())])
    rhs = riccati_rhs(sys, PlaneCoords(sys.n, sys.m, lam))
    return {(i, j): rhs[i - 1, j - 1] for (i, j) in sys.unknowns()}


def flag_table(sys: FlagSystem):
    """Coefficient tables of the flag system, one per unknown.

    Same monomial convention as riccati_table: flag_rhs evaluated at the
    symbolic unit-lower L with l_ij = var (i, j).
    """
    n = sys.n
    lam = MatK(n, n, [1 if i == j else 0 if i < j else MPoly.var((i, j))
                      for i in range(1, n + 1) for j in range(1, n + 1)])
    rhs = _sweep(sys.A, lam)[0]
    return {(i, j): rhs[i - 1, j - 1] for (i, j) in sys.unknowns()}


def flag_rhs(sys: FlagSystem, flag: FlagCoords) -> MatK:
    """Right-hand side L' = A L - L V of the flag system at the coordinates.

    This is W of the split A L = W + L V (see _sweep), with V upper
    triangular, so the result is strictly lower triangular.  For n <= 3
    the (i, j) entry is the classical cubic

        sum_{k=j..n} a_ik l_kj
      - sum_{k=1..j} sum_{r=j..n} l_ik a_kr l_rj
      + sum_{k=1..j} sum_{r=k+1..j} sum_{s=j..n} l_ir l_rk a_ks l_sj

    (l_pp = 1, l_pq = 0 for p < q); for larger n the substitution
    contributes higher-degree terms in columns j >= 3.
    """
    if flag.n != sys.n:
        raise DimensionMismatch("flag does not match system rank")
    return _sweep(sys.A, flag.lam)[0]


def flag_check_solution(sys: FlagSystem, flag: FlagCoords) -> bool:
    """True iff the derivative of every strictly-lower entry matches the RHS."""
    return flag.lam.derive() == flag_rhs(sys, flag)


def flag_to_grassmann(flag: FlagCoords, m: int) -> PlaneCoords:
    """Plückerian coordinates of the m-th subspace of the flag.

    Derived directly from the LU picture: the m-plane is spanned by the
    first m columns [L11; L21] of the flag matrix, whose top m x m block
    L11 is unit lower triangular, so the chart never fails and its
    coordinates are Lambda = L21 L11^{-1}, with L11^{-1} by forward
    substitution.  (The classical closed display for this map
    self-cancels for some indices and is not used.)
    """
    n = flag.n
    if not 1 <= m < n:
        raise BadBlockSize(f"plane dimension {m} invalid for rank {n}")
    top, _, bottom, _ = flag.lam.block_split(m)
    return PlaneCoords(n, m, bottom * _unit_lower_inverse(top))


class ReductionResult(Record):
    __slots__ = ("tau", "field", "is_solution")
    tau: GroupElement
    field: AutomorphicField
    is_solution: bool


def _unit_lower_inverse(lam: MatK) -> MatK:
    """L^{-1} of a unit-lower L by forward substitution, with no division:
    X_ij = -sum_{j <= k < i} L_ik X_kj below the unit diagonal.

    MatK.inverse would first clear the unrelated denominators of the
    flag coordinates into one, and the entries it eliminates grow with
    that product: with it, oracle cases at n = 3 ran about 1.2x slower.
    """
    n = lam.rows
    x = [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            acc = RF_ZERO
            for k in range(j, i):
                acc = acc - lam[i, k] * x[k][j]
            x[i][j] = acc
    return MatK.from_rows(x)


def _reduce(a: AutomorphicField, g: MatK, m: int | None, not_a_solution: str) -> ReductionResult:
    """Gauge A by tau = g^{-1}, g the unit-lower chart point of the coordinates.

    tau comes from forward substitution and has determinant 1.  The gauged
    field tau A tau^{-1} + tau' tau^{-1} = g^{-1}(A g - g') is
    B = V + tau (W - g') (see _sweep), whose part off h, tau (W - g'), is 0
    iff g' = W: then B = V, with no product by tau.  A non-solution emits a
    NotASolutionWarning at the caller of reduce_by_* and still returns B.
    """
    tau = GroupElement._known(_unit_lower_inverse(g), (_ZONE, _ZONE))
    w, v = _sweep(a.matrix, g, m)
    dg = g.derive()
    ok = w == dg
    if not ok:
        warnings.warn(not_a_solution, NotASolutionWarning, stacklevel=3)
        v = v + tau.sigma * (w - dg)
    return ReductionResult(tau, AutomorphicField(v), ok)


def reduce_by_plane(a: AutomorphicField, plane: PlaneCoords) -> ReductionResult:
    """Gauge A by tau = [[I, 0], [-Lambda, I]], the inverse of g = [[I, 0], [Lambda, I]].

    B is block upper (in the stabilizer of the standard m-plane) iff
    Lambda solves the matrix Riccati system.  See _reduce.
    """
    n, m = plane.n, plane.m
    if a.n != n:
        raise DimensionMismatch("field and plane rank mismatch")
    return _reduce(a, _plane_point(plane), m,
                   "plane is not a Riccati solution; block shape not guaranteed")


def reduce_by_flag(a: AutomorphicField, flag: FlagCoords) -> ReductionResult:
    """Gauge A by tau = L^{-1}, the inverse of the flag coordinate matrix.

    B is upper triangular (Borel form) iff L solves the flag system.  See _reduce.
    """
    if a.n != flag.n:
        raise DimensionMismatch("field and flag rank mismatch")
    return _reduce(a, flag.lam, None,
                   "coordinates do not solve the flag system; Borel shape not guaranteed")


# ---------------------------------------------------------------------------
# Display cross-checks.
#
# The generated tables are linear in the entries of A, so evaluating them
# once at a symbolic A, a_pq = var (p, q) nested as the constant coefficient
# of the unknowns' MPoly, gives the exact coefficient of each a_pq in front
# of each monomial.  The tables below transcribe the classical printed
# n = 2, 3 systems; where a printed term disagrees with the generated
# (oracle-backed) one, the report lists it.


def _symbolic_table(kind: str, n: int, m: int | None = None):
    """{unknown: {monomial: {(p, q): Gaussian coefficient}}} with symbolic A."""
    field = AutomorphicField(MatK(n, n, [MPoly({(): MPoly.var((p, q))})
                                         for p in range(1, n + 1) for q in range(1, n + 1)]))
    if kind == "riccati":
        tables = riccati_table(riccati_generate(field, m))
    else:
        tables = flag_table(flag_generate(field))
    return {unknown: {mono: {key: _as_rf(c).constant_value() for (key,), c in coeff.items()}
                      for mono, coeff in table.items()}
            for unknown, table in tables.items()}


# Printed ordinary/projective Riccati systems (1-based a indices).
_ONE = GaussianRational(1)
_MINUS = GaussianRational(-1)

DISPLAYED_RICCATI = {
    (2, 1): {
        (1, 1): {
            (): {(2, 1): _ONE},
            ((1, 1),): {(2, 2): _ONE, (1, 1): _MINUS},
            ((1, 1), (1, 1)): {(1, 2): _MINUS},
        },
    },
    (3, 1): {
        # x = Lambda_11, y = Lambda_21
        (1, 1): {
            (): {(2, 1): _ONE},
            ((1, 1),): {(2, 2): _ONE, (1, 1): _MINUS},
            ((2, 1),): {(2, 3): _ONE},
            ((1, 1), (1, 1)): {(1, 2): _MINUS},
            ((1, 1), (2, 1)): {(1, 3): _MINUS},
        },
        (2, 1): {
            # printed y-line shows (a33 - a11) without the factor y
            (): {(3, 1): _ONE, (3, 3): _ONE, (1, 1): _MINUS},
            ((1, 1),): {(3, 2): _ONE},
            ((2, 1), (2, 1)): {(1, 3): _MINUS},
            ((1, 1), (2, 1)): {(1, 2): _MINUS},
        },
    },
    (3, 2): {
        # xi = Lambda_11, eta = Lambda_12; printed cross terms carry + signs
        (1, 1): {
            (): {(3, 1): _ONE},
            ((1, 1),): {(3, 3): _ONE, (1, 1): _MINUS},
            ((1, 2),): {(2, 1): _ONE},
            ((1, 1), (1, 2)): {(2, 3): _MINUS},
            ((1, 1), (1, 1)): {(1, 3): _MINUS},
        },
        (1, 2): {
            (): {(3, 2): _ONE},
            ((1, 2),): {(3, 3): _ONE, (2, 2): _MINUS},
            ((1, 1),): {(1, 2): _ONE},
            ((1, 1), (1, 2)): {(1, 3): _MINUS},
            ((1, 2), (1, 2)): {(2, 3): _MINUS},
        },
    },
}

# Printed n = 3 flag system: x = l21, y = l31, z = l32.
DISPLAYED_FLAG_N3 = {
    (2, 1): {
        (): {(2, 1): _ONE},
        ((2, 1),): {(2, 2): _ONE, (1, 1): _MINUS},
        ((3, 1),): {(2, 3): _ONE},
        ((2, 1), (2, 1)): {(1, 2): _MINUS},
        ((2, 1), (3, 1)): {(1, 3): _MINUS},
    },
    (3, 1): {
        (): {(3, 1): _ONE},
        ((2, 1),): {(3, 2): _ONE},
        ((3, 1),): {(3, 3): _ONE, (1, 1): _MINUS},
        ((2, 1), (3, 1)): {(1, 2): _MINUS},
        ((3, 1), (3, 1)): {(1, 3): _MINUS},
    },
    (3, 2): {
        # printed z-line shows a12*y*z and a13*y*z^2 where the general
        # formula yields a12*x*z and a13*x*z^2
        (): {(3, 2): _ONE},
        ((3, 1),): {(1, 2): _MINUS},
        ((3, 2),): {(3, 3): _ONE, (2, 2): _MINUS},
        ((3, 1), (3, 2)): {(1, 2): _ONE, (1, 3): _MINUS},
        ((3, 1), (3, 2), (3, 2)): {(1, 3): _ONE},
        ((3, 2), (3, 2)): {(2, 3): _MINUS},
    },
}


def _diff_tables(generated, displayed):
    diffs = []
    unknowns = sorted(set(generated) | set(displayed))
    for unknown in unknowns:
        g = generated.get(unknown, {})
        d = displayed.get(unknown, {})
        monos = set(g) | set(d)
        for mono in sorted(monos):
            gt = g.get(mono, {})
            dt = d.get(mono, {})
            for key in sorted(set(gt) | set(dt)):
                gv = gt.get(key, GaussianRational(0))
                dv = dt.get(key, GaussianRational(0))
                if gv != dv:
                    diffs.append({
                        "unknown": unknown,
                        "monomial": mono,
                        "entry": key,
                        "generated": gv,
                        "displayed": dv,
                    })
    return diffs


def riccati_display_report():
    """Differences between generated Riccati tables and the printed ones.

    Keys are (n, m); each value is a list of per-term discrepancies (empty
    when the print agrees with the generated system).
    """
    return {(n, m): _diff_tables(_symbolic_table("riccati", n, m), displayed)
            for (n, m), displayed in DISPLAYED_RICCATI.items()}


def flag_display_report():
    """Differences between the generated n = 3 flag system and the print."""
    return _diff_tables(_symbolic_table("flag", 3), DISPLAYED_FLAG_N3)
