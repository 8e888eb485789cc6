"""Acceptance suite: eleven criteria, each printing one pass/fail line.

Every check is exact (structural equality of canonical forms); there are
no numerical tolerances anywhere.  Run with ``pytest -s`` to see the
per-criterion lines as they pass.
"""

import json
import random
import subprocess
import sys
import time
import warnings

import lievessiot.darboux as dbx
import lievessiot.homspace as hs
from lievessiot.automorphic import AutomorphicField, GroupElement, adjoint, log_deriv
from lievessiot.darboux import (SO3Field, SpherePoint, sl2_to_riccati,
                                so3_algebra_to_sl2, so3_pushforward_check,
                                so3_to_riccati)
from lievessiot.elliptic import (CurvePoint, PendulumParams, WeierstrassCurve,
                                 chord_tangent_add, check_weierstrass_solution,
                                 invariant_field_check, on_curve,
                                 paper_addition, pendulum_normal_form,
                                 pendulum_substitution_identity)
from lievessiot.errors import PoleAtPoint
from lievessiot.matrix import MatK
from lievessiot.parsing import format_matrix, format_ratfunc, parse_ratfunc
from lievessiot.ratfunc import (RatFunc, RF_ONE, RF_T,
                                check_exponential_solution,
                                check_integral_solution)
from lievessiot.scalars import GaussianRational, gq

from support import (rand_fraction, rand_fundamental, rand_invertible,
                     rand_poly, rand_ratfunc, rand_sphere_point, src_env)


def _report(num, description, ok):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, line


# --- shared randomized fundamental-solution suite (criteria 3 and 4) -------

_SUITE = {}


def _first_cols(m, k):
    return MatK(m.rows, k, [m[i, j] for i in range(m.rows) for j in range(k)])


def _perturb_plane(plane):
    lam = plane.Lambda
    rows = [[lam[i, j] for j in range(lam.cols)] for i in range(lam.rows)]
    rows[0][0] = rows[0][0] + RF_T
    return hs.PlaneCoords(plane.n, plane.m, MatK.from_rows(rows))


def _perturb_flag(flag):
    lam = flag.lam
    rows = [[lam[i, j] for j in range(lam.cols)] for i in range(lam.rows)]
    rows[1][0] = rows[1][0] + RF_T
    return hs.FlagCoords(MatK.from_rows(rows))


def _master_suite():
    if _SUITE:
        return _SUITE
    rng = random.Random(20260824)
    elapsed = 0.0
    cases = 0
    solution_checks_ok = True
    shapes_ok = True
    iff_ok = True
    for n, count in ((2, 60), (3, 30), (4, 10)):
        for k in range(count):
            start = time.monotonic()
            tau = rand_fundamental(rng, n, max_deg=3, span=2)
            a = AutomorphicField(log_deriv(GroupElement(tau)).matrix)
            flag = hs.flag_coords(GroupElement(tau))
            result = hs.reduce_by_flag(a, flag)
            solution_checks_ok &= result.is_solution
            b = result.field.matrix
            shapes_ok &= all(b[i, j].is_zero() for i in range(n) for j in range(i))
            for m in range(1, n):
                plane = hs.plucker_coords(_first_cols(tau, m), m)
                result = hs.reduce_by_plane(a, plane)
                solution_checks_ok &= result.is_solution
                _, _, b21, _ = result.field.matrix.block_split(m)
                shapes_ok &= b21.is_zero()
            cases += 1
            elapsed += time.monotonic() - start
            # iff direction on a subset: a perturbed chart point must fail
            # the check and must not produce the reduced shape (untimed:
            # this exercises the converse, not the oracle suite itself)
            if n == 2 or (n == 3 and k < 5):
                bad_plane = _perturb_plane(hs.plucker_coords(_first_cols(tau, 1), 1))
                sys_ = hs.riccati_generate(a, 1)
                iff_ok &= not hs.riccati_check_solution(sys_, bad_plane)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", hs.NotASolutionWarning)
                    bad = hs.reduce_by_plane(a, bad_plane)
                _, _, b21, _ = bad.field.matrix.block_split(1)
                iff_ok &= not b21.is_zero() and not bad.is_solution
                bad_flag = _perturb_flag(flag)
                iff_ok &= not hs.flag_check_solution(hs.flag_generate(a), bad_flag)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", hs.NotASolutionWarning)
                    badf = hs.reduce_by_flag(a, bad_flag)
                iff_ok &= not all(badf.field.matrix[i, j].is_zero()
                                  for i in range(n) for j in range(i))
    _SUITE.update(
        cases=cases,
        elapsed=elapsed,
        solution_checks_ok=solution_checks_ok,
        shapes_ok=shapes_ok,
        iff_ok=iff_ok,
    )
    return _SUITE


# --- criterion 1: Riccati formula reproduction ------------------------------


def test_criterion_01_riccati_reproduction():
    ok = True
    # n = 2: x' = a21 + (a22 - a11) x - a12 x^2, exactly
    gen2 = hs._symbolic_table("riccati", 2, 1)
    ok &= gen2 == hs.DISPLAYED_RICCATI[(2, 1)]
    report = hs.riccati_display_report()
    ok &= report[(2, 1)] == []
    # n = 3, m = 1: agree except the y-line where the print drops the
    # factor y from the (a33 - a11) term
    diffs31 = report[(3, 1)]
    expected31 = {((2, 1), (), (1, 1)), ((2, 1), (), (3, 3)),
                  ((2, 1), ((2, 1),), (1, 1)), ((2, 1), ((2, 1),), (3, 3))}
    ok &= {(d["unknown"], d["monomial"], d["entry"]) for d in diffs31} == expected31
    # n = 3, m = 2: agree except the two cross terms whose printed signs
    # disagree with the oracle-backed block formula
    diffs32 = report[(3, 2)]
    expected32 = {((1, 1), ((1, 2),), (2, 1)), ((1, 2), ((1, 1),), (1, 2))}
    ok &= {(d["unknown"], d["monomial"], d["entry"]) for d in diffs32} == expected32
    for d in diffs32:
        ok &= d["generated"] == -d["displayed"]
    _report(1, "matrix Riccati systems match the displayed n=2,3 forms "
               "up to the recorded discrepancies", ok)


# --- criterion 2: flag equation reproduction --------------------------------


def test_criterion_02_flag_reproduction():
    gen = hs._symbolic_table("flag", 3)
    disp = hs.DISPLAYED_FLAG_N3
    ok = gen[(2, 1)] == disp[(2, 1)]
    ok &= gen[(3, 1)] == disp[(3, 1)]
    diffs = hs.flag_display_report()
    ok &= all(d["unknown"] == (3, 2) for d in diffs)
    # the z-line print uses y where the generated system has x, in the
    # a12*z and a13*z^2 cross terms: four per-term records, two typos
    expected = {
        (((2, 1), (3, 2)), (1, 2)),
        (((3, 1), (3, 2)), (1, 2)),
        (((2, 1), (3, 2), (3, 2)), (1, 3)),
        (((3, 1), (3, 2), (3, 2)), (1, 3)),
    }
    ok &= {(d["monomial"], d["entry"]) for d in diffs} == expected
    _report(2, "n=3 flag system matches the displayed form; z-line x/y "
               "typos reported automatically", ok)


# --- criteria 3 and 4: master oracle and reduction theorems -----------------


def test_criterion_03_fundamental_solution_oracle():
    suite = _master_suite()
    ok = suite["cases"] >= 100 and suite["solution_checks_ok"] \
        and suite["elapsed"] < 60.0
    _report(3, f"fundamental-solution oracle: {suite['cases']} cases in "
               f"{suite['elapsed']:.1f}s, all flag/Riccati checks exact", ok)


def test_criterion_04_reduction_shapes():
    suite = _master_suite()
    ok = suite["shapes_ok"] and suite["iff_ok"]
    _report(4, "reductions give upper-triangular / zero-block shapes iff "
               "the input solves the system", ok)


# --- criterion 5: logarithmic-derivative laws -------------------------------


def test_criterion_05_log_derivative_laws():
    rng = random.Random(505)
    ok = True
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        sigma = GroupElement(rand_invertible(rng, n, 1))
        tau = GroupElement(rand_invertible(rng, n, 1))
        lhs = log_deriv(sigma * tau).matrix
        rhs = log_deriv(sigma).matrix + adjoint(sigma, log_deriv(tau)).matrix
        ok &= lhs == rhs
        inv = sigma.inverse()
        ok &= log_deriv(inv).matrix == -adjoint(inv, log_deriv(sigma)).matrix
    _report(5, "cocycle and inverse laws for the logarithmic derivative "
               "on 100 random pairs", ok)


# --- criterion 6: Darboux reduction -----------------------------------------


def test_criterion_06_darboux():
    ok = True
    # symbolic Riccati coefficients from the skew field (a, b, c)
    a = RatFunc(rand_poly(random.Random(1), 2))
    half = RatFunc.const(gq("1/2"))
    i_rf = RatFunc.const(gq(0, 1))
    for field in (SO3Field(RF_T, RF_ONE, RF_T * RF_T),
                  SO3Field(RF_ONE, a, -a)):
        q0, q1, q2 = so3_to_riccati(field)
        ok &= q0 == (-field.b - i_rf * field.c) * half
        ok &= q1 == -i_rf * field.a
        ok &= q2 == (-field.b + i_rf * field.c) * half
    # pushforward identity at 100 exact random triples
    rng = random.Random(606)
    done = 0
    while done < 100:
        field = SO3Field(rand_ratfunc(rng, 2), rand_ratfunc(rng, 2),
                         rand_ratfunc(rng, 2))
        p = rand_sphere_point(rng)
        t0 = GaussianRational(rand_fraction(rng))
        try:
            ok &= so3_pushforward_check(field, p, t0)
        except PoleAtPoint:
            continue
        done += 1
    # the unit-sphere identity through the symmetric-coordinate chart
    ok &= dbx.sphere_identity_residual().is_zero()
    _report(6, "SO(3) to Riccati reduction: symbolic coefficients, 100 "
               "pushforward checks, symbolic sphere identity", ok)


# --- criterion 7: so(3) -> sl(2) --------------------------------------------


def test_criterion_07_algebra_morphism():
    ok = True
    basis_so3 = dbx.so3_basis()
    components = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    images = [so3_algebra_to_sl2(SO3Field(*c)) for c in components]

    def morphism(m):
        return so3_algebra_to_sl2(SO3Field(m[0, 1], m[0, 2], m[1, 2]))

    for p in range(3):
        for q in range(3):
            lhs = images[p].lie_bracket(images[q])
            rhs = morphism(basis_so3[p].lie_bracket(basis_so3[q]))
            ok &= lhs == rhs
    # the composed map sl2_to_riccati . so3_algebra_to_sl2 equals the
    # direct Darboux reduction (this pins the sign table)
    rng = random.Random(707)
    for _ in range(50):
        field = SO3Field(rand_ratfunc(rng, 2), rand_ratfunc(rng, 2),
                         rand_ratfunc(rng, 2))
        ok &= so3_to_riccati(field) == sl2_to_riccati(so3_algebra_to_sl2(field))
    _report(7, "so(3)->sl(2) morphism: 9 bracket identities and the "
               "Riccati composition identity", ok)


# --- criterion 8: elliptic layer --------------------------------------------


def test_criterion_08_elliptic():
    ok = True
    curve = WeierstrassCurve(4, -4)
    gen = CurvePoint(RatFunc.const(1), RatFunc.const(2))
    inf = CurvePoint.infinity()
    pts = [inf, gen]
    for _ in range(5):
        pts.append(chord_tangent_add(curve, pts[-1], gen))
    rng = random.Random(808)
    for _ in range(40):
        p = rng.choice(pts)
        q = rng.choice(pts)
        ok &= on_curve(curve, chord_tangent_add(curve, p, q))
        ok &= chord_tangent_add(curve, p, q) == chord_tangent_add(curve, q, p)
        ok &= chord_tangent_add(curve, p, inf) == p
        ok &= chord_tangent_add(curve, p, -p) == inf
    triples = 0
    for p in pts:
        for q in pts:
            for r in pts:
                lhs = chord_tangent_add(curve, chord_tangent_add(curve, p, q), r)
                rhs = chord_tangent_add(curve, p, chord_tangent_add(curve, q, r))
                ok &= lhs == rhs
                triples += 1
    ok &= triples >= 20
    # paper_addition agrees with the chord-tangent oracle and stays on-curve
    for bp in pts[1:]:
        for p0 in pts[1:]:
            if bp.infinite or p0.infinite or bp.x == p0.x:
                continue
            a = RF_T
            xi, eta = paper_addition(curve, a, bp.x, a * bp.y, p0)
            expect = chord_tangent_add(curve, bp, p0)
            ok &= xi == expect.x and eta == expect.y
            ok &= on_curve(curve, CurvePoint(xi, eta))
    report = invariant_field_check(curve)
    ok &= report.tangent_residual.is_zero() and not report.displayed_is_tangent
    ok &= check_weierstrass_solution(curve, RatFunc.const(0), RF_ONE)
    ok &= not check_weierstrass_solution(curve, RF_ONE, RF_T)
    _report(8, "elliptic group laws, closed addition formulas and the "
               "invariant-field tangency report", ok)


# --- criterion 9: pendulum ---------------------------------------------------


def test_criterion_09_pendulum():
    ok = pendulum_substitution_identity()
    rng = random.Random(909)
    for _ in range(20):
        h = GaussianRational(rand_fraction(rng, 9, 4))
        if h == gq(1) or h == gq(-1):
            continue
        curve, audit = pendulum_normal_form(PendulumParams(h))
        ok &= curve.g2 == h * h / GaussianRational(3)
        ok &= curve.g3 == h * h * h / GaussianRational(27) + gq("1/16")
        ok &= audit.holds
    curve2, audit2 = pendulum_normal_form(PendulumParams(2))
    ok &= curve2.g2 == gq("4/3") and curve2.g3 == gq("155/432") and audit2.holds
    _report(9, "pendulum normal form invariants (h^2/3, h^3/27 + 1/16) "
               "with the symbolic substitution audit", ok)


# --- criterion 10: quadrature checks ----------------------------------------


def test_criterion_10_quadratures():
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        b = rand_ratfunc(rng, 3)
        ok &= check_integral_solution(b.derive(), b)
        wrong = b.derive() + RF_ONE
        ok &= not check_integral_solution(wrong, b)
    done = 0
    while done < 100:
        b = rand_ratfunc(rng, 3)
        if b.is_zero():
            continue
        ok &= check_exponential_solution(b.logderiv(), b)
        ok &= not check_exponential_solution(b.logderiv() + RF_T, b)
        done += 1
    _report(10, "integral and exponential solution checks on 100 "
                "true/false instances each", ok)


# --- criterion 11: parser round-trip and deterministic records --------------


def test_criterion_11_parser_and_records():
    rng = random.Random(1111)
    ok = True
    for _ in range(1000):
        f = rand_ratfunc(rng, 3, 3)
        ok &= parse_ratfunc(format_ratfunc(f)) == f
    argv = [sys.executable, "-m", "lievessiot.cli", "riccati",
            "--A", "[t, 1 + i; 2, -t]", "--m", "1", "--format", "record"]
    env = src_env()
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    ok &= first.returncode == 0 and first.stdout == second.stdout
    doc = json.loads(first.stdout)
    ok &= doc["format_version"] == 1
    _report(11, "1000 parser/printer round-trips and byte-identical CLI "
                "record output", ok)
