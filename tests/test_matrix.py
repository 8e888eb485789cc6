import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from lievessiot.automorphic import AutomorphicField
from lievessiot.errors import (BadBlockSize, DimensionMismatch,
                               PrincipalMinorVanishes, Singular)
from lievessiot.homspace import _sweep, flag_generate, flag_table, riccati_generate, riccati_table
from lievessiot.matrix import MatK, _entry
from lievessiot.mpoly import MPoly
from lievessiot.parsing import parse_matrix
from lievessiot.ratfunc import RF_ONE, RF_T, RF_ZERO, Poly, RatFunc
from lievessiot.scalars import GaussianRational

from support import rand_invertible, rand_poly_matrix, rand_ratfunc, ratfuncs


def test_constructors_and_indexing():
    m = parse_matrix("[1, t; 0, 2]")
    assert m.rows == 2 and m.cols == 2
    assert m[0, 1] == RF_T
    assert MatK.identity(3)[2, 2] == RF_ONE
    assert MatK.zero(2, 3).is_zero()


def test_ring_axioms_random():
    rng = random.Random(21)
    for _ in range(40):
        a = rand_poly_matrix(rng, 3, 2)
        b = rand_poly_matrix(rng, 3, 2)
        c = rand_poly_matrix(rng, 3, 2)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert (a - a).is_zero()


def test_dimension_mismatch():
    a = MatK.identity(2)
    b = MatK.identity(3)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * b


def test_det_multiplicative():
    rng = random.Random(22)
    for _ in range(25):
        a = rand_poly_matrix(rng, 3, 2)
        b = rand_poly_matrix(rng, 3, 2)
        assert (a * b).det() == a.det() * b.det()


def test_inverse_random():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for _ in range(8):
            a = rand_invertible(rng, n, 2)
            assert a * a.inverse() == MatK.identity(n)
            assert a.inverse() * a == MatK.identity(n)


def test_singular_inverse_raises():
    m = parse_matrix("[1, 1; 1, 1]")
    with pytest.raises(Singular):
        m.inverse()
    assert m.det().is_zero()


def test_derive_product_rule():
    rng = random.Random(24)
    for _ in range(20):
        a = rand_poly_matrix(rng, 3, 2)
        b = rand_poly_matrix(rng, 3, 2)
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_trace_and_bracket():
    rng = random.Random(25)
    for _ in range(20):
        a = rand_poly_matrix(rng, 3, 2)
        b = rand_poly_matrix(rng, 3, 2)
        br = a.lie_bracket(b)
        assert br == a * b - b * a
        assert br.trace() == RF_ZERO
        assert (a + b).trace() == a.trace() + b.trace()


def test_block_split_and_join_roundtrip():
    rng = random.Random(26)
    m = rand_poly_matrix(rng, 4, 1)
    for k in (1, 2, 3):
        a11, a12, a21, a22 = m.block_split(k)
        assert a11.rows == k and a22.rows == 4 - k
        assert MatK.block_join(a11, a12, a21, a22) == m
    with pytest.raises(BadBlockSize):
        m.block_split(0)
    with pytest.raises(BadBlockSize):
        m.block_split(4)


def test_lu_flag_decompose_example():
    m = parse_matrix("[1, 1; t, 1]")
    lower, upper = m.lu_flag_decompose()
    assert lower == parse_matrix("[1, 0; t, 1]")
    assert upper == parse_matrix("[1, 1; 0, 1 - t]")
    assert lower * upper == m


def test_lu_random_invariants():
    rng = random.Random(27)
    for n in (2, 3, 4):
        for _ in range(6):
            while True:
                m = rand_poly_matrix(rng, n, 2)
                if all(not mk.is_zero() for mk in m.principal_minors()):
                    break
            lower, upper = m.lu_flag_decompose()
            assert lower * upper == m
            for i in range(n):
                assert lower[i, i] == RF_ONE
                for j in range(i + 1, n):
                    assert lower[i, j].is_zero()
                for j in range(i):
                    assert upper[i, j].is_zero()


def test_lu_vanishing_minor_raises():
    m = parse_matrix("[0, 1; 1, 0]")
    with pytest.raises(PrincipalMinorVanishes) as exc:
        m.lu_flag_decompose()
    assert exc.value.k == 1


def test_principal_minors():
    m = parse_matrix("[1, 2; 3, 4]")
    minors = m.principal_minors()
    assert minors[0] == RF_ONE
    assert minors[1] == RatFunc.const(-2)


def test_scalar_multiplication():
    m = parse_matrix("[1, t; 0, 1]")
    assert RatFunc.const(2) * m == m + m
    # Q(i) scalars, on either side
    c = GaussianRational(Fraction(1, 2), 3)
    assert m * c == c * m == RatFunc.const(c) * m == MatK(2, 2, [c, RatFunc.const(c) * RF_T, 0, c])
    assert MatK.identity(2) * GaussianRational(2) == GaussianRational(2) * MatK.identity(2) \
        == MatK.identity(2) + MatK.identity(2)


def test_sums_run_over_one_denominator(monkeypatch):
    # + and - over K add numerators over one denominator: no entrywise sum
    rng = random.Random(22)
    a, b = (MatK(3, 3, [rand_ratfunc(rng, 2) for _ in range(9)]) for _ in range(2))
    sums = MatK(3, 3, [x + y for x, y in zip(a.entries, b.entries)])
    differences = MatK(3, 3, [x - y for x, y in zip(a.entries, b.entries)])

    def entrywise(*args):
        raise AssertionError("an entrywise RatFunc sum")

    with monkeypatch.context() as m:
        m.setattr(RatFunc, "_add_signed", entrywise)
        assert (a + b, a - b) == (sums, differences)
        assert (a - a).is_zero()


def test_symbolic_sums_keep_the_entrywise_path():
    # MPoly entries have no Z[i][t] form; their sums stay entrywise and give
    # the Riccati and flag tables again from the closed formulas
    a = parse_matrix("[t, 2, 1/(t - 1); 3, 1, t; i, 1/t, t^2]")
    for m in (1, 2):
        table = riccati_table(riccati_generate(AutomorphicField(a), m))
        lam = MatK(3 - m, m, [MPoly.var(ij) for ij in sorted(table)])
        a11, a12, a21, a22 = a.block_split(m)
        rhs = a21 + a22 * lam - lam * a11 - lam * a12 * lam
        assert table == {(i + 1, j + 1): rhs[i, j] for i in range(3 - m) for j in range(m)}
    # the flag system is W of A L = W + L V, V upper triangular
    lam = MatK(3, 3, [1 if i == j else 0 if i < j else MPoly.var((i, j))
                      for i in range(1, 4) for j in range(1, 4)])
    _, v = _sweep(a, lam)
    w = a * lam - lam * v
    table = flag_table(flag_generate(AutomorphicField(a)))
    assert table == {(i, j): w[i - 1, j - 1] for (i, j) in table}


# -- det and inverse against sympy over Q(i)(t) -------------------------------

_K = sympy.QQ_I.frac_field(sympy.Symbol("t"))
_coeff = st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=2), st.integers(-2, 2))
_poly = st.lists(_coeff, max_size=3).map(Poly)
# denominators 1, t, t - 1, t + i and t + (1 + i)/2: a short list keeps
# the common denominator of a 4 x 4 matrix small; the last one clears to
# (1 + i) + 2t, whose Gaussian content 1 + i is not a unit
_den = st.sampled_from([Poly([1]), Poly([0, 1]), Poly([-1, 1]), Poly([GaussianRational(0, 1), 1]),
                        Poly([GaussianRational(Fraction(1, 2), Fraction(1, 2)), 1])])


@st.composite
def _square(draw):
    """A 1x1 to 4x4 matrix over Q(i)(t), polynomial or rational.  One in
    three is singular, its last row a combination of the others; the rest
    are invertible, t^3 at the places of a permutation outgrowing every
    other numerator (so pivots can be zero and rows must be swapped)."""
    n = draw(st.integers(1, 4))
    rational = draw(st.booleans())
    singular = draw(st.integers(0, 2)) == 0
    perm = draw(st.permutations(range(n)))
    rows = [[RatFunc(draw(_poly), draw(_den) if rational else Poly([1]))
             + (RF_T ** 3 if j == perm[i] and not singular else RF_ZERO)
             for j in range(n)] for i in range(n)]
    if singular:
        c = [RatFunc(draw(_poly)) for _ in range(n - 1)]
        rows[-1] = [sum((ci * rows[i][j] for i, ci in enumerate(c)), RF_ZERO) for j in range(n)]
    return MatK.from_rows(rows)


def _to_k(x: RatFunc):
    def poly(p):
        return _K.field.ring.from_dict({
            (k,): sympy.QQ_I(sympy.QQ(c.re.numerator, c.re.denominator),
                             sympy.QQ(c.im.numerator, c.im.denominator))
            for k, c in enumerate(p.coeffs)})
    return _K.field.new(poly(x.num), poly(x.den))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_square())
def test_det_and_inverse_match_sympy(m):
    n = m.rows
    ref = DomainMatrix([[_to_k(m[i, j]) for j in range(n)] for i in range(n)], (n, n), _K)
    # sympy's determinant and adjugate of the numerators N = d * m over Q(i)[t]
    d, numerators = ref.clear_denoms(convert=True)
    det_n = numerators.det()

    def k(x):
        return _K.convert_from(x, numerators.domain)

    # field elements compare by representation, so compare differences with 0
    assert not _to_k(m.det()) - k(det_n) / k(d.element) ** n
    if not det_n:
        with pytest.raises(Singular):
            m.inverse()
        return
    inv = m.inverse()
    scale = k(d.element) / k(det_n)
    adj = numerators.adjugate().to_list()
    assert all(not _to_k(inv[i, j]) - scale * k(adj[i][j]) for i in range(n) for j in range(n))


# -- canonical entries from Z[i][t] against sympy's cancel over Q(i) ----------

_Q = sympy.ring("t", sympy.QQ_I)[0]
_zi = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


def _trim(coeffs):
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    return coeffs


_zpoly = st.lists(_zi, max_size=4).map(_trim)


def _qi(a):
    return _Q.from_dict({(k,): sympy.QQ_I(re, im) for k, (re, im) in enumerate(a) if re or im})


def _zmul_ref(a, b):
    if not a or not b:
        return []
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for j, (ar, ai) in enumerate(a):
        for k, (br, bi) in enumerate(b):
            re, im = out[j + k]
            out[j + k] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return out


def _from_poly(poly):
    return _Q.from_dict({(k,): sympy.QQ_I(sympy.QQ(c.re.numerator, c.re.denominator),
                                          sympy.QQ(c.im.numerator, c.im.denominator))
                         for k, c in enumerate(poly.coeffs)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_zpoly, _zpoly.filter(bool), _zpoly.filter(bool))
def test_entry_is_the_canonical_form_of_sympy_cancel(a, b, c):
    # a common factor c makes the gcd nontrivial in most examples
    num, den = _zmul_ref(a, c), _zmul_ref(b, c)
    ours = _entry(num, den)
    assert all(not p.coeffs or not p.coeffs[-1].is_zero() for p in (ours.num, ours.den))
    p, q = _qi(num).cancel(_qi(den))
    lead = q.LC
    assert (_from_poly(ours.num), _from_poly(ours.den)) == (p.quo_ground(lead), q.quo_ground(lead))
    # a zero operand of + and - returns the other operand, negated for 0 - x
    for x, sign in ((ours + RF_ZERO, 1), (RF_ZERO + ours, 1), (ours - RF_ZERO, 1),
                    (RF_ZERO - ours, -1)):
        assert (_from_poly(x.num), _from_poly(x.den)) == (sign * p.quo_ground(lead),
                                                          q.quo_ground(lead))


# -- sums over one denominator against sympy's cancel over Q(i) ----------------


@st.composite
def _summands(draw):
    """Two matrices of one shape whose entries have unrelated denominators,
    share one denominator, or cancel: the second is minus the first but for
    one entry."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = [draw(ratfuncs) for _ in range(rows * cols)]
    b = [draw(ratfuncs) for _ in range(rows * cols)]
    kind = draw(st.sampled_from(("unrelated", "shared", "cancel")))
    if kind == "shared":
        den = draw(ratfuncs.filter(lambda f: not f.is_zero()))
        a, b = [x / den for x in a], [x / den for x in b]
    elif kind == "cancel":
        b = [-x for x in a[:-1]] + b[-1:]
    return MatK(rows, cols, a), MatK(rows, cols, b)


def _cancelled(x: RatFunc, y: RatFunc, sign: int):
    """sympy's cancel of x + sign * y, with the denominator made monic."""
    xn, xd, yn, yd = map(_from_poly, (x.num, x.den, y.num, y.den))
    p, q = (xn * yd + sign * yn * xd).cancel(xd * yd)
    return p.quo_ground(q.LC), q.quo_ground(q.LC)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_summands())
def test_sums_match_sympy_cancel(ab):
    a, b = ab
    for got, sign in ((a + b, 1), (a - b, -1)):
        assert [(_from_poly(e.num), _from_poly(e.den)) for e in got.entries] == \
            [_cancelled(x, y, sign) for x, y in zip(a.entries, b.entries)]
    assert (a - a).is_zero() and (a + -a).is_zero()
