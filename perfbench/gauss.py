"""Exact Gaussian-integer polynomials, kept apart from lievessiot.

The benchmark builds its inputs and their expected answers here, so a
verdict is known by construction and does not come from the code under
test.  A Gaussian integer is an (re, im) pair of ints; a polynomial is a
tuple of them, lowest degree first, without trailing zeros.
"""

from __future__ import annotations

ZERO = ()
ONE = ((1, 0),)
T = ((0, 0), (1, 0))


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == (0, 0):
        cs.pop()
    return tuple(cs)


def padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] = (out[k][0] + c[0], out[k][1] + c[1])
    return _trim(out)


def pneg(p):
    return tuple((-re, -im) for re, im in p)


def psub(p, q):
    return padd(p, pneg(q))


def pmul(p, q):
    if not p or not q:
        return ZERO
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for j, a in enumerate(p):
        for k, b in enumerate(q):
            c = gmul(a, b)
            out[j + k] = (out[j + k][0] + c[0], out[j + k][1] + c[1])
    return _trim(out)


def pderiv(p):
    return _trim((k * re, k * im) for k, (re, im) in enumerate(p) if k)


def peval(p, z):
    acc = (0, 0)
    for c in reversed(p):
        acc = gmul(acc, z)
        acc = (acc[0] + c[0], acc[1] + c[1])
    return acc


def rand_poly(rng, max_deg, span):
    """Degree uniform in 0..max_deg, coefficients in [-span, span] + i[-span, span]."""
    deg = rng.randint(0, max_deg)
    return _trim((rng.randint(-span, span), rng.randint(-span, span)) for _ in range(deg + 1))


def rand_poly_exact(rng, deg, span):
    """Degree exactly deg; coefficients as in rand_poly, the leading one nonzero."""
    coeffs = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(deg + 1)]
    while coeffs[-1] == (0, 0):
        coeffs[-1] = (rng.randint(-span, span), rng.randint(-span, span))
    return tuple(coeffs)


# -- matrices of polynomials (lists of rows) ---------------------------------


def mmul(a, b):
    return [[_sum(pmul(a[i][k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _sum(ps):
    acc = ZERO
    for p in ps:
        acc = padd(acc, p)
    return acc


def mderiv(a):
    return [[pderiv(e) for e in row] for row in a]


def unipotent_inverse(low):
    """Inverse of a unit-lower-triangular polynomial matrix, by forward substitution."""
    n = len(low)
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            inv[i][j] = pneg(_sum(pmul(low[i][k], inv[k][j]) for k in range(j, i)))
    return inv


def det_at(m, z):
    """Determinant of the polynomial matrix m evaluated at the Gaussian integer z."""
    vals = [[peval(e, z) for e in row] for row in m]
    return _det(vals)


def _det(v):
    if len(v) == 1:
        return v[0][0]
    acc = (0, 0)
    for j, c in enumerate(v[0]):
        if c == (0, 0):
            continue
        minor = [row[:j] + row[j + 1:] for row in v[1:]]
        term = gmul(c, _det(minor))
        sign = -1 if j % 2 else 1
        acc = (acc[0] + sign * term[0], acc[1] + sign * term[1])
    return acc


def leading_minors_nonzero(m, z):
    """Sufficient test that every leading principal minor is a nonzero polynomial."""
    return all(det_at([row[:k] for row in m[:k]], z) != (0, 0)
               for k in range(1, len(m) + 1))


# -- text in the lievessiot expression grammar ------------------------------


def fmt_poly(p):
    if not p:
        return "0"
    terms = []
    for k, (re, im) in enumerate(p):
        if (re, im) == (0, 0):
            continue
        coeff = f"({re} + {im}*i)"
        terms.append(coeff if k == 0 else f"{coeff}*t" if k == 1 else f"{coeff}*t^{k}")
    return " + ".join(terms)


def fmt_matrix(m):
    return "[" + "; ".join(", ".join(fmt_poly(e) for e in row) for row in m) + "]"
