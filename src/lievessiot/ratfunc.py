"""The differential field K = C(t): polynomials and reduced rational
functions over the Gaussian rationals, with derivation d/dt.

Canonical form of a RatFunc: gcd(num, den) = 1 and den monic.  Equality
is structural equality of canonical forms, so every solution check in
the package reduces to ==.

One step cancels, _cancel(a, b): g = gcd(a, b), then a / g and b / g if g
is not constant.  The constructor always takes it and makes den monic.  A
product takes it on each numerator and the other denominator, a sum
(Henrici) on the two denominators, then on the new numerator and their
gcd; such results are canonical and built by RatFunc._known as they are.

Constant and polynomial operands skip the gcd: in a product with a constant
factor or of two polynomials, or a sum with a polynomial term, each gcd of
Henrici's rule has a constant operand and is exactly 1.  So Poly.gcd returns
1 at once, a product by a constant Poly only scales, and forms stay canonical.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, PoleAtPoint
from .scalars import GaussianRational, ONE, ZERO, _as_gauss


class Poly:
    """Dense univariate polynomial over Q(i); coeffs[k] is the t**k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_gauss(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([_as_gauss(c)])

    @staticmethod
    def t() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussianRational:
        if self.is_zero():
            return ZERO
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            (c,), p = (self.coeffs, other) if len(self.coeffs) == 1 else (other.coeffs, self)
            return p if c.re == 1 and not c.im else Poly([a * c for a in p.coeffs])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, GaussianRational):
            return self * other
        return NotImplemented

    def divmod(self, other):
        """Exact Euclidean division: self = q*other + r, deg r < deg other."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q = [ZERO] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.leading()
        d = other.degree
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            c = rem[-1] / lead
            q[k] = c
            for j, oc in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * oc
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(q), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd, by Brown's modular gcd over Z[i][t] (_zgcd).

        A nonzero constant operand gives 1 at once.  Otherwise denominators
        are cleared and the gcd runs modulo primes, where coefficients stay
        below 2**30; the naive monic Euclidean algorithm over Q(i) blows up
        badly on the operand sizes produced by the matrix layer.
        """
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        if self.degree == 0 or other.degree == 0:
            return _ONE_POLY
        g = _zgcd(_clear(self)[0], _clear(other)[0])[0]
        return _from_zi(g, g[-1])

    def derivative(self) -> "Poly":
        return Poly([self.coeffs[k] * GaussianRational(k) for k in range(1, len(self.coeffs))])

    def eval(self, p: GaussianRational) -> GaussianRational:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


# -- polynomials over the Gaussian integers ---------------------------------
# Gaussian integers are (re, im) pairs of ints; a polynomial in Z[i][t] is
# a dense lowest-first list of them without trailing zeros ([] is zero).
# The fraction-free matrix kernels run on these, in ints only, and so does
# the gcd: Brown's modular gcd, whose images mod primes are lists of ints
# below 2**30, highest coefficient first.

_ZONE = [(1, 0)]


def _gi_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gi_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _round_div(a, n):
    # nearest integer to a/n for n > 0
    return (2 * a + n) // (2 * n)


def _gi_gcd(x, y):
    # Euclidean algorithm with nearest-Gaussian-integer division
    while y != (0, 0):
        n = y[0] * y[0] + y[1] * y[1]
        p = _gi_mul(x, (y[0], -y[1]))
        q = (_round_div(p[0], n), _round_div(p[1], n))
        x, y = y, _gi_sub(x, _gi_mul(q, y))
    return x


def _gi_divexact(x, g):
    n = g[0] * g[0] + g[1] * g[1]
    p = _gi_mul(x, (g[0], -g[1]))
    return (p[0] // n, p[1] // n)


def _content(coeffs):
    """A gcd in Z[i] of the coefficients; (1, 0) when it is a unit.

    A content g that is not a unit divides every coefficient, so its
    norm, at least 2, divides every coefficient's norm: when the norms
    are coprime the Euclid loop is skipped.
    """
    n = 0
    for re, im in coeffs:
        n = math.gcd(n, re * re + im * im)
        if n == 1:
            return (1, 0)
    g = (0, 0)
    for c in coeffs:
        g = _gi_gcd(g, c)
        if g in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            return (1, 0)
    return g


def _primitive(coeffs):
    g = _content(coeffs)
    if g == (1, 0):
        return coeffs
    return [_gi_divexact(c, g) for c in coeffs]


# -- Brown's modular gcd ---------------------------------------------------
# A prime p = 1 (mod 4) splits in Z[i] as P P' with P = (p, i - r) and
# P' = (p, i + r), where r^2 = -1 (mod p); reduction mod P sends x + iy to
# x + ry mod p.  Below 2**30 every residue is a one-digit Python int.

_PRIMES = {}  # k -> _prime(k), filled as needed


def _is_prime(n):
    # Miller-Rabin to the bases 2, 3, 5 and 7, exact below 3.2e9
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for w in (2, 3, 5, 7):
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k):
    """(p, r): the k-th largest prime p = 1 (mod 4) below 2**30 (from k = 0)
    and a root r of -1 mod p.  Callers ask for k = 0, 1, 2, ... in turn."""
    if k not in _PRIMES:
        p = _prime(k - 1)[0] - 4 if k else 2**30 - 3
        while not _is_prime(p):
            p -= 4
        w = 2
        while pow(w, (p - 1) // 2, p) != p - 1:  # a quadratic non-residue
            w += 1
        _PRIMES[k] = (p, pow(w, (p - 1) // 4, p))
    return _PRIMES[k]


def _image(a, p, s):
    """a in Z[i][t] mod (p, i - s): a list mod p, highest coefficient first, no leading zeros."""
    out = [(x + s * y) % p for x, y in reversed(a)]
    k = 0
    while k < len(out) and not out[k]:
        k += 1
    return out[k:] if k else out


def _pgcd(a, b, p):
    """The monic gcd in F_p[t] of a and b (highest coefficient first), not both zero."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        w = p - pow(b[0], -1, p)
        n = len(b)
        tail = b[1:]
        while len(a) >= n:
            c = a[0] * w % p
            a = [(x + c * y) % p for x, y in zip(a[1:n], tail)] + a[n:]
            k = 0
            while k < len(a) and not a[k]:
                k += 1
            if k:
                a = a[k:]
        a, b = b, a
    w = pow(a[0], -1, p)
    return [c * w % p for c in a]


def _image_gcd(a, b, p, s):
    """The monic gcd of a and b mod (p, i - s), or None when both leading
    coefficients vanish there."""
    ai, bi = _image(a, p, s), _image(b, p, s)
    if len(ai) < len(a) and len(bi) < len(b):
        return None
    return _pgcd(ai, bi, p)


def _sym(x, p):
    # the residue x mod p in (-p/2, p/2]
    return x - p if x > p >> 1 else x


def _zgcd(a, b):
    """(h, a / h, b / h): h the primitive gcd of nonzero a and b, up to a unit.

    Brown's modular gcd (J. ACM 18(4), 1971) over primes p = 1 (mod 4).
    Either operand constant: h is a unit.  A unit h is returned as 1.

    The first prime is a certificate of coprimality.  Map a and b to
    F_p[t] through P = (p, i - r).  If a or b keeps its degree mod P and
    gcd(a mod P, b mod P) is constant, h is a unit, exactly: lc(h)
    divides lc(a) and lc(b), so h mod P keeps its degree; h mod P divides
    both images; so a nonconstant h would force a nonconstant gcd mod P.
    The same holds at every later prime and at P' = (p, i + r).

    Otherwise the images of gamma h / lc(h), gamma = gcd(lc a, lc b),
    under i -> r and i -> -r are gamma times the monic gcds mod P and
    mod P' at every prime where they have the least degree seen; a prime
    of higher degree is unlucky and is skipped.  The two images u, v of a coefficient
    x + iy give x = (u + v) / 2 and y = (u - v) / (2r) mod p, and CRT
    combines the primes.  The candidate's primitive part is h once it
    divides a and b: it then divides h, and no image has a degree below
    deg h.
    """
    if len(a) == 1 or len(b) == 1:
        return _ZONE, a, b
    gamma = acc = m = None
    k = 0
    while True:
        p, r = _prime(k)
        k += 1
        u = _image_gcd(a, b, p, r)
        if u is None:
            continue
        if len(u) == 1:
            return _ZONE, a, b
        if gamma is None:
            gamma = _gi_gcd(a[-1], b[-1])
        v = _image_gcd(a, b, p, p - r)
        if v is None:
            continue
        if len(v) == 1:
            return _ZONE, a, b
        if len(u) != len(v) or (acc is not None and len(u) > len(acc)):
            continue
        gu = (gamma[0] + r * gamma[1]) % p
        gv = (gamma[0] - r * gamma[1]) % p
        half, inv = (p + 1) // 2, pow(2 * r, -1, p)
        mod_p = [((x * gu + y * gv) * half % p, (x * gu - y * gv) * inv % p) for x, y in zip(u, v)]
        if acc is None or len(u) < len(acc):
            acc, m = [(_sym(x, p), _sym(y, p)) for x, y in mod_p], p
        else:
            w = pow(m, -1, p)
            acc = [(X + m * _sym((x - X) * w % p, p), Y + m * _sym((y - Y) * w % p, p))
                   for (x, y), (X, Y) in zip(mod_p, acc)]
            m *= p
        h = _primitive(acc[::-1])
        if (qa := _zquo(a, h)) is not None and (qb := _zquo(b, h)) is not None:
            return h, qa, qb


def _strip(re, im):
    while re and not re[-1] and not im[-1]:
        re.pop()
        im.pop()
    return list(zip(re, im))


def _zdot(pairs):
    """The sum of the products a * b over the (a, b) pairs."""
    size = max((len(a) + len(b) - 1 for a, b in pairs if a and b), default=0)
    re, im = [0] * size, [0] * size
    for a, b in pairs:
        if not a or not b:
            continue
        for j, (ar, ai) in enumerate(a):
            if ai:
                for k, (br, bi) in enumerate(b, j):
                    re[k] += ar * br - ai * bi
                    im[k] += ar * bi + ai * br
            elif ar:
                for k, (br, bi) in enumerate(b, j):
                    re[k] += ar * br
                    im[k] += ar * bi
    return _strip(re, im)


def _zmul(a, b):
    if b == _ZONE:
        return a
    if a == _ZONE:
        return b
    return _zdot(((a, b),))


def _zneg(a):
    return [(-re, -im) for re, im in a]


def _zpow(a, n: int):
    out = _ZONE
    for _ in range(n):
        out = _zmul(out, a)
    return out


def _zderiv(a):
    return [(k * re, k * im) for k, (re, im) in enumerate(a) if k]


def _zquo(a, b):
    """a / b in Z[i][t], or None when b does not divide a: long division,
    each coefficient divided by b's leading one as c * conj(lead) / norm(lead)."""
    if b == _ZONE:
        return a
    br, bi = b[-1]
    n = br * br + bi * bi
    db = len(b) - 1
    re = [c[0] for c in a]
    im = [c[1] for c in a]
    q = [None] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        cr, ci = re[k + db], im[k + db]
        qr, xr = divmod(cr * br + ci * bi, n)
        qi, xi = divmod(ci * br - cr * bi, n)
        if xr or xi:
            return None
        q[k] = (qr, qi)
        for j in range(db):
            xr, xi = b[j]
            re[k + j] -= qr * xr - qi * xi
            im[k + j] -= qr * xi + qi * xr
    if any(re[:db]) or any(im[:db]):
        return None
    return q


def _clear(p: "Poly"):
    """(a, m) with p = a / m, a in Z[i][t] and m the positive lcm of the
    coefficient denominators."""
    m = 1
    for c in p.coeffs:
        m = math.lcm(m, c.re.denominator, c.im.denominator)
    return [(c.re.numerator * (m // c.re.denominator), c.im.numerator * (m // c.im.denominator))
            for c in p.coeffs], m


def _from_zi(a, lead) -> "Poly":
    """The Poly a / lead for a in Z[i][t] and a nonzero Gaussian integer lead."""
    lr, li = lead
    if lead == (1, 0):
        coeffs = [GaussianRational(re, im) for re, im in a]
    else:
        n = lr * lr + li * li
        coeffs = [GaussianRational(Fraction(re * lr + im * li, n), Fraction(im * lr - re * li, n))
                  for re, im in a]
    p = object.__new__(Poly)
    p.coeffs = tuple(coeffs)
    return p


_ONE_POLY = Poly([1])


def _cancel(a: Poly, b: Poly):
    """(a / g, b / g, g) for g = gcd(a, b), monic: the one cancellation step
    of the RatFunc arithmetic.  A constant g divides nothing."""
    g = a.gcd(b)
    if g.degree > 0:
        a = a.divmod(g)[0]
        b = b.divmod(g)[0]
    return a, b, g


def _monic_den(num: Poly, den: Poly):
    """(num / c, den / c) for c the leading coefficient of den."""
    c = den.leading()
    if c.re == 1 and not c.im:
        return num, den
    return Poly([x / c for x in num.coeffs]), Poly([x / c for x in den.coeffs])


class RatFunc:
    """Element of K = C(t) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, GaussianRational)):
            num = Poly.const(num)
        if den is None:
            den = _ONE_POLY
        elif isinstance(den, (int, GaussianRational)):
            den = Poly.const(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = _ONE_POLY
        else:
            num, den = _monic_den(*_cancel(num, den)[:2])
        self.num = num
        self.den = den

    @staticmethod
    def _known(num: Poly, den: Poly) -> "RatFunc":
        """The RatFunc num / den of a pair already in canonical form."""
        r = object.__new__(RatFunc)
        r.num, r.den = num, den
        return r

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc._known(Poly.const(c), _ONE_POLY)

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc._known(Poly.t(), _ONE_POLY)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("not a constant")
        if self.num.is_zero():
            return ZERO
        return self.num.coeffs[0]

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, GaussianRational)):
            return RatFunc.const(x)
        if isinstance(x, Poly):
            return RatFunc(x)
        return NotImplemented

    def _add_signed(self, other, negate: bool):
        # Henrici's algorithm: both operands are canonical, so the only
        # possible cancellation sits inside g = gcd of the denominators;
        # coprime denominators are the case g = 1, where nothing divides
        if other.is_zero():
            return self
        if self.is_zero():
            return -other if negate else other
        an, ad = self.num, self.den
        bn, bd = other.num, other.den
        if negate:
            bn = -bn
        if ad.degree == 0 and bd.degree == 0:
            return RatFunc._known(an + bn, _ONE_POLY)
        ad_r, bd_r, g = _cancel(ad, bd)
        num = an * bd_r + bn * ad_r
        if num.is_zero():
            return RF_ZERO
        num, g, _ = _cancel(num, g)
        return RatFunc._known(num, ad_r * bd_r * g)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add_signed(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add_signed(other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        # cross-cancel: the factors inside each numerator/denominator pair
        # are already coprime, so the product below is canonical
        an, bd, _ = _cancel(self.num, other.den)
        bn, ad, _ = _cancel(other.num, self.den)
        return RatFunc._known(an * bn, ad * bd)

    __rmul__ = __mul__

    def _inv(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("division by the zero function")
        return RatFunc._known(*_monic_den(self.den, self.num))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return RatFunc._known(-self.num, self.den)

    def __pow__(self, n: int):
        if n < 0:
            return (RatFunc.const(1) / self) ** (-n)
        out = RatFunc.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def derive(self) -> "RatFunc":
        """d/dt by the quotient rule; constants map to 0."""
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def logderiv(self) -> "RatFunc":
        """The logarithmic derivative x'/x (x nonzero)."""
        if self.is_zero():
            raise DivisionByZero("logarithmic derivative of 0")
        return self.derive() / self

    def eval(self, p) -> GaussianRational:
        p = _as_gauss(p)
        d = self.den.eval(p)
        if d.is_zero():
            raise PoleAtPoint(f"pole at t = {p}")
        return self.num.eval(p) / d

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as its value, as == with constants requires
        return hash(self.constant_value()) if self.is_constant() else hash((self.num, self.den))

    def __repr__(self):
        from .parsing import format_ratfunc

        return f"RatFunc({format_ratfunc(self)!r})"

    def __str__(self):
        from .parsing import format_ratfunc

        return format_ratfunc(self)


def _as_rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc.const(x)


RF_ZERO = RatFunc.const(0)
RF_ONE = RatFunc.const(1)
RF_T = RatFunc.t()


def check_integral_solution(a: RatFunc, b: RatFunc) -> bool:
    """True iff b' = a exactly, i.e. b is a rational antiderivative of a."""
    return b.derive() == a


def check_exponential_solution(a: RatFunc, b: RatFunc) -> bool:
    """True iff b'/b = a exactly (b nonzero)."""
    return b.logderiv() == a
