import random

import pytest

import lievessiot.matrix as matrix
from lievessiot.automorphic import (AutomorphicField, GroupElement, adjoint,
                                    check_automorphic_solution,
                                    gauge_transform, is_in_subalgebra,
                                    log_deriv)
from lievessiot.errors import BadBlockSize, DimensionMismatch, Singular, ToolkitError
from lievessiot.matrix import MatK
from lievessiot.parsing import parse_matrix
from lievessiot.ratfunc import RF_ONE

from support import rand_invertible


def test_group_element_rejects_singular():
    with pytest.raises(Singular, match="group element must be invertible over K"):
        GroupElement(parse_matrix("[1, 1; 1, 1]"))


def test_group_element_eliminates_once(monkeypatch):
    # det sigma and sigma^{-1} come from one Gauss-Jordan in __init__;
    # products and inverses of inverses need no further MatK elimination
    rng = random.Random(30)
    for rational in (False, True):
        sigma = rand_invertible(rng, 3, 2)
        if rational:
            sigma = sigma * parse_matrix("[1/(t - 1), 0, 0; 0, 1, 0; t/(t + i), 0, 1]")
        det, inv = sigma.det(), sigma.inverse()

        def again(self):
            raise AssertionError("a second elimination")

        with monkeypatch.context() as m:
            m.setattr(MatK, "det", again)
            m.setattr(MatK, "inverse", again)
            g = GroupElement(sigma)
            assert g.det() == det and g.inverse().sigma == inv
            assert g.inverse().det() == RF_ONE / det and g.inverse().inverse() is g
            product = g * g.inverse()
            assert product.sigma == MatK.identity(3) and product.det() == RF_ONE
            assert log_deriv(product).matrix.is_zero()


def test_group_laws_stay_over_one_denominator(monkeypatch):
    # elements, products, inverses, log_deriv and adjoint keep numerators
    # over one denominator: no entry is made canonical until an entry is read
    rng = random.Random(35)
    calls = []

    def counted(nums, den):
        calls.append(len(nums))
        return entries(nums, den)

    entries = matrix._entries
    s, t, a = rand_invertible(rng, 3, 2), rand_invertible(rng, 3, 2), rand_invertible(rng, 3, 1)
    with monkeypatch.context() as m:
        m.setattr(matrix, "_entries", counted)
        sigma, tau, a = GroupElement(s), GroupElement(t), AutomorphicField(a)
        product, inv = sigma * tau, sigma.inverse()
        field, adj = log_deriv(sigma), adjoint(sigma, a)
        assert product.sigma is product.sigma and field.matrix is field.matrix
        assert calls == []
        # each matrix is made canonical once, on the first read of an entry
        assert product.sigma[0, 0] is product.sigma[0, 0] and field.matrix.entries is field.matrix.entries
        assert calls == [9, 9]
    assert sigma.sigma == s and sigma.sigma.entries is s.entries
    assert product.sigma == s * t
    assert inv.sigma == s.inverse()
    assert field.matrix == s.derive() * s.inverse()
    assert adj.matrix == s * a.matrix * s.inverse()
    for g in (sigma, tau, product, inv):
        assert g.det() == g.sigma.det()


def test_common_content_takes_one_non_unit_gcd(monkeypatch):
    # every numerator of l(sigma^{-1}) = (sigma^{-1})' sigma and of
    # Adj_{sigma^{-1}} l(sigma) shares a factor with their denominator: it is
    # stripped by one non-unit gcd, and each entry's own gcd is then a unit;
    # with or without a content, as in l(sigma), no entry pays two gcds
    rng = random.Random(36)
    s = rand_invertible(rng, 3, 2)
    sigma = GroupElement(s)
    gcds = []

    def counted(a, b):
        out = zgcd(a, b)
        gcds.append(len(out[0]) > 1)
        return out

    zgcd = matrix._zgcd
    for field, expected, content in (
            (log_deriv(sigma.inverse()), s.inverse().derive() * s, True),
            (adjoint(sigma.inverse(), log_deriv(sigma)),
             s.inverse() * s.derive() * s.inverse() * s, True),
            (log_deriv(sigma), s.derive() * s.inverse(), False)):
        gcds.clear()
        with monkeypatch.context() as m:
            m.setattr(matrix, "_zgcd", counted)
            result = field.matrix
            assert gcds == []
            result.entries
        nonzero = sum(not e.is_zero() for e in result.entries)
        assert result == expected and nonzero > 1
        assert gcds.count(True) == (1 if content else 0)
        assert len(gcds) == nonzero


def test_cocycle_law_reads_numerators(monkeypatch):
    # both sides of l(sigma tau) = l(sigma) + Adj_sigma l(tau) stay over one
    # denominator: the sum takes one gcd, for lcm(d_A, d_B), and == compares
    # numerators, so no entry is made canonical
    rng = random.Random(37)
    sigma, tau = (GroupElement(rand_invertible(rng, 3, 2)) for _ in range(2))
    calls = {"_entries": 0, "_zgcd": 0}

    def counted(name):
        original = getattr(matrix, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(matrix, name, counted(name))
        lhs = log_deriv(sigma * tau).matrix
        rhs = log_deriv(sigma).matrix + adjoint(sigma, log_deriv(tau)).matrix
        assert lhs == rhs
    assert calls == {"_entries": 0, "_zgcd": 1}
    assert lhs != rhs + parse_matrix("[t, 0, 0; 0, 0, 0; 0, 0, 0]")
    assert lhs.entries == rhs.entries and hash(lhs) == hash(rhs)


def test_log_deriv_example():
    sigma = GroupElement(parse_matrix("[1, t; 0, 1]"))
    assert log_deriv(sigma).matrix == parse_matrix("[0, 1; 0, 0]")


def test_log_deriv_constant_is_zero():
    sigma = GroupElement(parse_matrix("[2, 1; 1, 1]"))
    assert log_deriv(sigma).matrix.is_zero()


def test_cocycle_law_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice((2, 3))
        sigma = GroupElement(rand_invertible(rng, n, 1))
        tau = GroupElement(rand_invertible(rng, n, 1))
        product = sigma * tau
        assert product.sigma == sigma.sigma * tau.sigma
        # the group law gives det(sigma tau) = det sigma det tau, unchecked
        assert product.det() == product.sigma.det()
        lhs = log_deriv(product).matrix
        rhs = log_deriv(sigma).matrix + adjoint(sigma, log_deriv(tau)).matrix
        assert lhs == rhs
        assert lhs == product.sigma.derive() * product.sigma.inverse()


def test_inverse_law_random():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.choice((2, 3))
        sigma = GroupElement(rand_invertible(rng, n, 2))
        inv = sigma.inverse()
        assert inv is sigma.inverse() and inv.inverse() is sigma
        assert inv.det() == inv.sigma.det()
        assert inv.sigma == sigma.sigma.inverse()
        assert log_deriv(inv).matrix == -adjoint(inv, log_deriv(sigma)).matrix
        assert log_deriv(inv).matrix == inv.sigma.derive() * sigma.sigma


def test_gauge_transform_is_group_action():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.choice((2, 3))
        a = AutomorphicField(rand_invertible(rng, n, 1))
        tau1 = GroupElement(rand_invertible(rng, n, 1))
        tau2 = GroupElement(rand_invertible(rng, n, 1))
        once = gauge_transform(tau1, gauge_transform(tau2, a))
        composed = gauge_transform(tau1 * tau2, a)
        assert once == composed
        # against plain MatK products, for a polynomial and a rational tau
        for tau in (tau1, tau1.inverse()):
            t, inv = tau.sigma, tau.sigma.inverse()
            assert gauge_transform(tau, a).matrix == t * a.matrix * inv + t.derive() * inv
            assert adjoint(tau, a).matrix == t * a.matrix * inv


def test_gauge_by_solution_trivializes():
    rng = random.Random(34)
    for _ in range(20):
        n = rng.choice((2, 3))
        sigma = GroupElement(rand_invertible(rng, n, 2))
        a = log_deriv(sigma)
        # gauging by sigma^{-1} pulls the field back to zero
        b = gauge_transform(sigma.inverse(), a)
        assert b.matrix.is_zero()
        assert check_automorphic_solution(a, sigma)


def test_check_automorphic_solution_false():
    a = AutomorphicField(parse_matrix("[0, 1; 0, 0]"))
    sigma = GroupElement(parse_matrix("[1, 0; t, 1]"))
    assert not check_automorphic_solution(a, sigma)


def test_is_in_subalgebra_shapes():
    skew = AutomorphicField(parse_matrix("[0, t; -t, 0]"))
    assert is_in_subalgebra(skew, "skew_symmetric")
    assert is_in_subalgebra(skew, "trace_zero")
    upper = AutomorphicField(parse_matrix("[1, t; 0, 2]"))
    assert is_in_subalgebra(upper, "upper_triangular")
    assert not is_in_subalgebra(upper, "trace_zero")
    block = AutomorphicField(parse_matrix("[1, t, 1; 0, 2, 0; 0, 1, 1]"))
    assert is_in_subalgebra(block, "block_upper", m=1)
    assert not is_in_subalgebra(block, "upper_triangular")


def test_is_in_subalgebra_block_upper_needs_m():
    with pytest.raises(BadBlockSize):
        is_in_subalgebra(AutomorphicField(MatK.identity(2)), "block_upper")


def test_is_in_subalgebra_unknown_shape():
    with pytest.raises(ToolkitError):
        is_in_subalgebra(AutomorphicField(MatK.identity(2)), "lower_triangular")


def test_size_mismatch_raises():
    a = AutomorphicField(MatK.identity(2))
    tau = GroupElement(MatK.identity(3))
    with pytest.raises(DimensionMismatch):
        gauge_transform(tau, a)
    with pytest.raises(DimensionMismatch):
        adjoint(tau, a)
