"""Shared helpers for the test suite: seeded random generators for exact
scalars, polynomials, rational functions, matrices and sphere points, a
hypothesis strategy for rational functions, and the environment of a
subprocess that imports lievessiot."""

import os
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from lievessiot.matrix import MatK
from lievessiot.ratfunc import Poly, RatFunc
from lievessiot.scalars import GaussianRational


def rand_fraction(rng: random.Random, span=4, den=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_gauss(rng: random.Random, span=4, den=3) -> GaussianRational:
    return GaussianRational(rand_fraction(rng, span, den), rand_fraction(rng, span, den))


def rand_gauss_int(rng: random.Random, span=2) -> GaussianRational:
    return GaussianRational(rng.randint(-span, span), rng.randint(-span, span))


def rand_poly(rng: random.Random, max_deg=3, span=2) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rand_gauss_int(rng, span) for _ in range(deg + 1)]
    return Poly(coeffs)


def rand_ratfunc(rng: random.Random, max_deg=3, span=2) -> RatFunc:
    num = rand_poly(rng, max_deg, span)
    den = rand_poly(rng, max_deg, span)
    while den.is_zero():
        den = rand_poly(rng, max_deg, span)
    return RatFunc(num, den)


_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_gauss = st.builds(GaussianRational, _q, _q)
_nonzero_gauss = _gauss.filter(bool)


def _polys(min_deg: int):
    """Polys of degree min_deg to 3, with a nonzero leading coefficient."""
    return st.builds(lambda low, lead: Poly(low + [lead]),
                     st.lists(_gauss, min_size=min_deg, max_size=3), _nonzero_gauss)


# one operand class each: constants, polynomials (degree >= 1), and
# fractions whose denominator has degree >= 1 before reduction
ratfuncs = st.one_of(
    _gauss.map(RatFunc.const),
    _polys(1).map(RatFunc),
    st.builds(RatFunc, _polys(0), _polys(1)),
)


def rand_poly_matrix(rng: random.Random, n: int, max_deg=3, span=2) -> MatK:
    rows = [[RatFunc(rand_poly(rng, max_deg, span)) for _ in range(n)]
            for _ in range(n)]
    return MatK.from_rows(rows)


def rand_fundamental(rng: random.Random, n: int, max_deg=3, span=2) -> MatK:
    """Random polynomial matrix with all principal minors nonzero."""
    while True:
        tau = rand_poly_matrix(rng, n, max_deg, span)
        if all(not mk.is_zero() for mk in tau.principal_minors()):
            return tau


def rand_invertible(rng: random.Random, n: int, max_deg=2, span=2) -> MatK:
    while True:
        tau = rand_poly_matrix(rng, n, max_deg, span)
        if not tau.det().is_zero():
            return tau


def rand_sphere_point(rng: random.Random):
    """Exact rational sphere point via inverse stereographic projection."""
    from lievessiot.darboux import SpherePoint

    while True:
        u = rand_fraction(rng, 3, 3)
        v = rand_fraction(rng, 3, 3)
        d = u * u + v * v + 1
        p = SpherePoint(Fraction(2) * u / d, Fraction(2) * v / d,
                        (u * u + v * v - 1) / d)
        if (GaussianRational(1) - p.x2) and (p.x0 - GaussianRational(0, 1) * p.x1):
            return p


def src_env() -> dict:
    """os.environ with the repository's src directory first on PYTHONPATH,
    so a subprocess imports lievessiot from a bare checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
