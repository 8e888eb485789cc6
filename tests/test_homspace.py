import random
import warnings

import pytest

from lievessiot.automorphic import (AutomorphicField, GroupElement,
                                   gauge_transform, log_deriv)
from lievessiot.errors import (BadBlockSize, ChartMinorVanishes,
                               DimensionMismatch)
from lievessiot.homspace import (FlagCoords, NotASolutionWarning, PlaneCoords,
                                 flag_check_solution,
                                 flag_coords, flag_generate, flag_rhs,
                                 flag_table, flag_to_grassmann,
                                 plucker_coords, reduce_by_flag,
                                 reduce_by_plane, riccati_check_solution,
                                 riccati_generate, riccati_rhs, riccati_table)
from lievessiot.matrix import MatK
from lievessiot.parsing import parse_matrix
from lievessiot.ratfunc import RF_ONE, RF_T, RF_ZERO, RatFunc

from support import rand_fundamental, rand_poly, rand_ratfunc


def evaluate_table(table, values):
    """Evaluate one unknown's {monomial: coeff} table at unknown values."""
    acc = RF_ZERO
    for mono, coeff in table.items():
        term = coeff
        for key in mono:
            term = term * values[key]
        acc = acc + term
    return acc


def _first_cols(m, k):
    return MatK(m.rows, k, [m[i, j] for i in range(m.rows) for j in range(k)])


def test_plucker_coords_simple():
    x = parse_matrix("[1; t]")
    plane = plucker_coords(x, 1)
    assert plane.Lambda == parse_matrix("[t]")
    # rescaling the column leaves the chart coordinates unchanged
    y = parse_matrix("[2; 2*t]")
    assert plucker_coords(y, 1) == plane


def test_plucker_chart_failure():
    with pytest.raises(ChartMinorVanishes):
        plucker_coords(parse_matrix("[0; 1]"), 1)


def test_riccati_generate_validates_m():
    a = AutomorphicField(MatK.identity(3))
    with pytest.raises(BadBlockSize):
        riccati_generate(a, 0)
    with pytest.raises(BadBlockSize):
        riccati_generate(a, 3)
    with pytest.raises(BadBlockSize):
        riccati_generate(a, None)


def test_riccati_rhs_matches_table_evaluation():
    rng = random.Random(41)
    for _ in range(10):
        tau = rand_fundamental(rng, 3, 2)
        a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
        for m in (1, 2):
            sys_ = riccati_generate(a, m)
            plane = plucker_coords(_first_cols(tau, m), m)
            values = {(i, j): plane.Lambda[i - 1, j - 1] for (i, j) in sys_.unknowns()}
            tables = riccati_table(sys_)
            rhs = riccati_rhs(sys_, plane)
            for (i, j) in sys_.unknowns():
                assert evaluate_table(tables[(i, j)], values) == rhs[i - 1, j - 1]


def test_fundamental_solution_solves_riccati():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.choice((2, 3))
        tau = rand_fundamental(rng, n, 2)
        a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
        for m in range(1, n):
            sys_ = riccati_generate(a, m)
            plane = plucker_coords(_first_cols(tau, m), m)
            assert riccati_check_solution(sys_, plane)


def test_flag_coords_and_solution():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.choice((2, 3))
        tau = rand_fundamental(rng, n, 2)
        a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
        flag = flag_coords(GroupElement(tau))
        assert flag_check_solution(flag_generate(a), flag)


def test_flag_rhs_strictly_lower():
    rng = random.Random(44)
    tau = rand_fundamental(rng, 3, 2)
    a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
    flag = flag_coords(GroupElement(tau))
    rhs = flag_rhs(flag_generate(a), flag)
    for i in range(3):
        for j in range(i, 3):
            assert rhs[i, j].is_zero()


def test_flag_coords_validation():
    with pytest.raises(DimensionMismatch):
        FlagCoords(parse_matrix("[2, 0; 0, 1]"))
    with pytest.raises(DimensionMismatch):
        FlagCoords(parse_matrix("[1, 1; 0, 1]"))


def test_flag_to_grassmann_consistency():
    rng = random.Random(45)
    for _ in range(10):
        n = rng.choice((3, 4))
        tau = rand_fundamental(rng, n, 2)
        flag = flag_coords(GroupElement(tau))
        for m in range(1, n):
            via_flag = flag_to_grassmann(flag, m)
            direct = plucker_coords(_first_cols(tau, m), m)
            assert via_flag == direct


def test_reduce_by_plane_zero_block():
    rng = random.Random(46)
    for _ in range(10):
        n = rng.choice((2, 3))
        tau = rand_fundamental(rng, n, 2)
        a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
        for m in range(1, n):
            plane = plucker_coords(_first_cols(tau, m), m)
            result = reduce_by_plane(a, plane)
            assert result.is_solution
            _, _, b21, _ = result.field.matrix.block_split(m)
            assert b21.is_zero()


def test_reduce_by_plane_nonsolution_warns_and_keeps_block():
    a = AutomorphicField(parse_matrix("[0, 1; 1, 0]"))
    plane = PlaneCoords(2, 1, parse_matrix("[t]"))
    with pytest.warns(NotASolutionWarning):
        result = reduce_by_plane(a, plane)
    assert not result.is_solution
    _, _, b21, _ = result.field.matrix.block_split(1)
    assert not b21.is_zero()


def test_reduce_by_flag_upper_triangular():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.choice((2, 3))
        tau = rand_fundamental(rng, n, 2)
        a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
        flag = flag_coords(GroupElement(tau))
        result = reduce_by_flag(a, flag)
        assert result.is_solution
        b = result.field.matrix
        for i in range(n):
            for j in range(i):
                assert b[i, j].is_zero()


def test_reduce_by_flag_nonsolution_warns():
    a = AutomorphicField(parse_matrix("[0, 1; t, 0]"))
    flag = FlagCoords(parse_matrix("[1, 0; 1, 1]"))
    with pytest.warns(NotASolutionWarning):
        result = reduce_by_flag(a, flag)
    assert not result.is_solution


def test_flag_table_solved_by_unit_lower_fundamental_matrix():
    # for unit-lower tau, flag_coords(tau) = tau, so L = tau solves the
    # flag system of A = l(tau): the tables evaluated at L give L'
    rng = random.Random(50)
    for n in (2, 3, 4, 5):
        tau = _unit_lower(n, lambda: RatFunc(rand_poly(rng, 1)))
        sys_ = flag_generate(AutomorphicField(log_deriv(GroupElement(tau)).matrix))
        tables = flag_table(sys_)
        assert set(tables) == set(sys_.unknowns())
        lam = flag_coords(GroupElement(tau)).lam
        assert lam == tau
        for flag, solves in ((lam, True), (_bumped(lam, n - 1, 0), False)):
            values = {(i, j): flag[i - 1, j - 1] for (i, j) in sys_.unknowns()}
            deriv = flag.derive()
            agree = [evaluate_table(tables[(i, j)], values) == deriv[i - 1, j - 1]
                     for (i, j) in sys_.unknowns()]
            assert all(agree) is solves


def test_riccati_n2_scalar_equation():
    # x' = a21 + (a22 - a11) x - a12 x^2 for [[a11, a12], [a21, a22]]
    a = AutomorphicField(parse_matrix("[t, 2; 3, 1]"))
    table = riccati_table(riccati_generate(a, 1))[(1, 1)]
    assert table[()] == RatFunc.const(3)
    assert table[((1, 1),)] == RF_ONE - RF_T
    assert table[((1, 1), (1, 1))] == RatFunc.const(-2)


def _bumped(mat, i, j):
    entries = list(mat.entries)
    entries[i * mat.cols + j] = entries[i * mat.cols + j] + RF_T
    return MatK(mat.rows, mat.cols, entries)


def _unit_lower(n, entry):
    return MatK(n, n, [RF_ONE if i == j else RF_ZERO if i < j else entry()
                       for i in range(n) for j in range(n)])


def _reduction_inputs(rng, n):
    """(A, tau) pairs; tau is None for a random A with rational entries.

    A = l(tau) is polynomial for a unit-lower tau of degree 1 and
    rational for a general fundamental tau.
    """
    for tau in (_unit_lower(n, lambda: RatFunc(rand_poly(rng, 1))),
                rand_fundamental(rng, n, 1)):
        yield AutomorphicField(log_deriv(GroupElement(tau)).matrix), tau
    yield AutomorphicField(MatK(n, n, [rand_ratfunc(rng, 1) for _ in range(n * n)])), None


def _reduce_recording(reduce, a, coords):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = reduce(a, coords)
    assert [w.category for w in caught] == ([] if result.is_solution else [NotASolutionWarning])
    return result


def test_reduce_by_plane_matches_gauge_reference():
    rng = random.Random(48)
    for n in (2, 3, 4):
        for a, tau in _reduction_inputs(rng, n):
            for m in range(1, n):
                if tau is None:
                    lam = MatK(n - m, m, [rand_ratfunc(rng, 1) for _ in range((n - m) * m)])
                    cases = [(PlaneCoords(n, m, lam), False)]
                else:
                    good = plucker_coords(_first_cols(tau, m), m)
                    cases = [(good, True), (PlaneCoords(n, m, _bumped(good.Lambda, 0, 0)), False)]
                for plane, expected in cases:
                    result = _reduce_recording(reduce_by_plane, a, plane)
                    assert result.tau.sigma == MatK.block_join(
                        MatK.identity(m), MatK.zero(m, n - m), -plane.Lambda, MatK.identity(n - m))
                    assert result.tau._det == result.tau.sigma.det() == RF_ONE
                    assert result.field == gauge_transform(result.tau, a)
                    assert result.is_solution is riccati_check_solution(
                        riccati_generate(a, m), plane) is expected


def test_reduce_by_flag_matches_gauge_reference():
    rng = random.Random(49)
    for n in (2, 3, 4):
        for a, tau in _reduction_inputs(rng, n):
            if tau is None:
                cases = [(FlagCoords(_unit_lower(n, lambda: rand_ratfunc(rng, 1))), False)]
            else:
                good = flag_coords(GroupElement(tau))
                cases = [(good, True), (FlagCoords(_bumped(good.lam, 1, 0)), False)]
            for flag, expected in cases:
                result = _reduce_recording(reduce_by_flag, a, flag)
                assert result.tau.sigma == flag.lam.inverse()
                assert result.tau.sigma * flag.lam == MatK.identity(n)
                assert result.tau._det == result.tau.sigma.det() == RF_ONE
                assert result.field == gauge_transform(result.tau, a)
                assert result.is_solution is flag_check_solution(
                    flag_generate(a), flag) is expected
