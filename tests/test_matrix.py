import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from lievessiot.errors import (BadBlockSize, DimensionMismatch,
                               PrincipalMinorVanishes, Singular)
from lievessiot.matrix import MatK, _entry
from lievessiot.parsing import parse_matrix
from lievessiot.ratfunc import RF_ONE, RF_T, RF_ZERO, Poly, RatFunc
from lievessiot.scalars import GaussianRational

from support import rand_invertible, rand_poly_matrix


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
