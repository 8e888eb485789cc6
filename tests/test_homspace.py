import random
import warnings

import pytest

from lievessiot.automorphic import (AutomorphicField, GroupElement,
                                   gauge_transform, is_in_subalgebra, log_deriv)
from lievessiot.errors import (BadBlockSize, ChartMinorVanishes,
                               DimensionMismatch)
from lievessiot.homspace import (FlagCoords, NotASolutionWarning, PlaneCoords,
                                 _sweep, flag_check_solution,
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


@pytest.mark.parametrize("m", [0, 3, 4])
def test_plane_coords_validate_m_before_shape(m):
    # m = 0, n and n + 1 for n = 3 fail on the block size, whatever the shape
    # of Lambda, the empty (n - m) x m one included
    for lam in [parse_matrix("[t]")] + ([MatK(3 - m, m, [])] if m <= 3 else []):
        with pytest.raises(BadBlockSize, match=f"^plane dimension {m} invalid for rank 3$"):
            PlaneCoords(3, m, lam)


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
            # both come from one split of A g, so check the block formula too
            a11, a12, a21, a22 = a.matrix.block_split(m)
            lam = plane.Lambda
            assert rhs == a21 + a22 * lam - lam * a11 - lam * a12 * lam


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
                    assert result.tau.det() == result.tau.sigma.det() == RF_ONE
                    assert result.field == gauge_transform(result.tau, a)
                    assert is_in_subalgebra(result.field, "block_upper", m) is result.is_solution
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
                assert result.tau.det() == result.tau.sigma.det() == RF_ONE
                assert result.field == gauge_transform(result.tau, a)
                assert is_in_subalgebra(result.field, "upper_triangular") is result.is_solution
                assert result.is_solution is flag_check_solution(
                    flag_generate(a), flag) is expected


def test_sweep_splits_a_g():
    # A g = W + g V, V in h and W zero on h, for h block upper with blocks
    # (m, n - m) and g = [[I, 0], [Lambda, I]], or h upper triangular and g
    # unit lower (m None)
    rng = random.Random(53)
    for n in (2, 3, 4):
        for m in [*range(1, n), None]:
            a = MatK(n, n, [rand_ratfunc(rng, 1) for _ in range(n * n)])
            if m is None:
                g, shape = _unit_lower(n, lambda: rand_ratfunc(rng, 1)), "upper_triangular"
                off_h = [(i, j) for i in range(n) for j in range(i)]
            else:
                lam = MatK(n - m, m, [rand_ratfunc(rng, 1) for _ in range((n - m) * m)])
                g = MatK.block_join(MatK.identity(m), MatK.zero(m, n - m), lam, MatK.identity(n - m))
                shape, off_h = "block_upper", [(i, j) for i in range(m, n) for j in range(m)]
            w, v = _sweep(a, g, m)
            assert a * g == w + g * v
            assert is_in_subalgebra(AutomorphicField(v), shape, m)
            assert all(w[i, j].is_zero() for i in range(n) for j in range(n) if (i, j) not in off_h)
            assert any(not w[i, j].is_zero() for i, j in off_h)


def _lower_right(mat, k):
    return MatK(mat.rows - k, mat.cols - k,
                [mat[i, j] for i in range(k, mat.rows) for j in range(k, mat.cols)])


def _embed(block, n):
    """diag(I, block) in gl(n)."""
    k = n - block.rows
    return MatK(n, n, [block[i - k, j - k] if i >= k and j >= k else RF_ONE if i == j else RF_ZERO
                       for i in range(n) for j in range(n)])


def _lie_kolchin_steps(a, sigma):
    """Borel reduction of A along n - 1 plane steps with m = 1.

    Step k reduces the lower-right (n - k)-block of the field at the chart
    of the first column of the same block of gauge * sigma, a fundamental
    matrix of that block.  Returns the product of the block-embedded step
    gauges, the whole gauged field and each step's verdict.  The field is
    assembled from the gauge action of g = diag(I, tau_k), whose inverse
    is the step's chart point: rows above k are those of F g^{-1}, the
    lower-left block is that of g F, and the lower-right block is the
    step's field.
    """
    n = a.n
    gauge, field, verdicts = MatK.identity(n), a.matrix, []
    for k in range(n - 1):
        r = n - k
        plane = plucker_coords(_first_cols(_lower_right(gauge * sigma, k), 1), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotASolutionWarning)
            step = reduce_by_plane(AutomorphicField(_lower_right(field, k)), plane)
        verdicts.append(step.is_solution)
        g = _embed(step.tau.sigma, n)
        g_inv = _embed(MatK.block_join(MatK.identity(1), MatK.zero(1, r - 1),
                                       plane.Lambda, MatK.identity(r - 1)), n)
        right, left, b = field * g_inv, g * field, step.field.matrix
        field = MatK(n, n, [right[i, j] if i < k else left[i, j] if j < k else b[i - k, j - k]
                            for i in range(n) for j in range(n)])
        gauge = g * gauge
    return gauge, field, verdicts


def test_stepwise_lie_kolchin_matches_reduce_by_flag():
    # the criterion-3 generator; all principal minors of sigma are nonzero,
    # so every step's chart (a Schur complement's corner) is defined
    rng = random.Random(51)
    for n, count in ((2, 4), (3, 3), (4, 1)):
        for _ in range(count):
            sigma = rand_fundamental(rng, n, max_deg=3, span=2)
            a = AutomorphicField(log_deriv(GroupElement(sigma)).matrix)
            gauge, field, verdicts = _lie_kolchin_steps(a, sigma)
            assert verdicts == [True] * (n - 1)
            flag = reduce_by_flag(a, flag_coords(GroupElement(sigma)))
            assert gauge == flag.tau.sigma
            assert field == flag.field.matrix
            # column n - 2 enters only the last step's chart
            _, _, verdicts = _lie_kolchin_steps(a, _bumped(sigma, n - 1, n - 2))
            assert verdicts == [True] * (n - 2) + [False]


def test_reductions_run_no_elimination(monkeypatch):
    import lievessiot.matrix as matrix_module

    rng = random.Random(52)
    cases = []
    for n in (2, 3):
        sigma = rand_fundamental(rng, n, max_deg=2)
        a = AutomorphicField(log_deriv(GroupElement(sigma)).matrix)
        plane = plucker_coords(_first_cols(sigma, 1), 1)
        flag = flag_coords(GroupElement(sigma))
        cases += [(reduce_by_plane, a, plane, True),
                  (reduce_by_plane, a, PlaneCoords(n, 1, _bumped(plane.Lambda, 0, 0)), False),
                  (reduce_by_flag, a, flag, True),
                  (reduce_by_flag, a, FlagCoords(_bumped(flag.lam, 1, 0)), False)]

    def refuse(*args, **kwargs):
        raise AssertionError("a reduction ran an elimination")

    monkeypatch.setattr(MatK, "inverse", refuse)
    monkeypatch.setattr(MatK, "det", refuse)
    monkeypatch.setattr(matrix_module, "_gauss_jordan", refuse)
    for reduce, a, coords, expected in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = reduce(a, coords)
        assert result.is_solution is expected
        assert [(w.category, w.filename) for w in caught] == (
            [] if expected else [(NotASolutionWarning, __file__)])
