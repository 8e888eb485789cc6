"""The four seeded workloads.

Each workload builds a fixed list of cases from a seed before timing
starts.  ``submit(case)`` is the timed part: it runs the case through
lievessiot's public functions (looked up on their modules at call time,
so a tracer's patches apply) and returns what the program answered.
``check(case, answer)`` compares that answer with the verdict the case
was built to have, including the negative controls, so a program that
always says "yes" fails.  ``spec`` is a JSON-able description of the
generated inputs; its digest shows that two runs used the same inputs.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

import lievessiot.automorphic as au
import lievessiot.darboux as dx
import lievessiot.elliptic as el
import lievessiot.homspace as hs
import lievessiot.matrix as mx
import lievessiot.parsing as ps
import lievessiot.ratfunc as rf
from lievessiot.scalars import GaussianRational

import gauss as gs

PROBE = (3, 1)  # evaluation point for the nonzero-minor tests
SKELETON_BLOCK = 8  # degree patterns in each block of case slots


def degree_skeleton(name, count, n, max_deg):
    """Entry degrees for each case slot, the same for every seed.

    A case's cost depends mostly on the degrees of its entries, so fixing
    them per slot keeps the cost mix of a run the same from seed to seed;
    the seed draws every coefficient.  The slots come in blocks that each
    hold the same SKELETON_BLOCK patterns (degrees uniform in 0..max_deg,
    drawn once), each block in an order of its own, so the mix also stays
    the same whether a run reaches 40 cases or 60.
    """
    rng = random.Random(f"{name}-degrees")
    patterns = [[[rng.randint(0, max_deg) for _ in range(n)] for _ in range(n)]
                for _ in range(SKELETON_BLOCK)]
    out = []
    while len(out) < count:
        out += rng.sample(patterns, len(patterns))
    return out[:count]


def rand_matrix(rng, degrees, span=2):
    return [[gs.rand_poly_exact(rng, d, span) for d in row] for row in degrees]


def to_poly(p):
    return rf.Poly([GaussianRational(re, im) for re, im in p])


def to_rf(num, den=gs.ONE):
    return rf.RatFunc(to_poly(num), to_poly(den))


def to_mat(m):
    return mx.MatK.from_rows([[to_rf(e) for e in row] for row in m])


def _first_cols(m, k):
    return mx.MatK(m.rows, k, [m[i, j] for i in range(m.rows) for j in range(k)])


def _plus_t(mat, i, j):
    rows = [[mat[p, q] for q in range(mat.cols)] for p in range(mat.rows)]
    rows[i][j] = rows[i][j] + rf.RF_T
    return mx.MatK.from_rows(rows)


def _strictly_lower_zero(b):
    return all(b[i, j].is_zero() for i in range(b.rows) for j in range(i))


def _negative_slots(rng, count, share=4):
    """Exactly one negative in each block of `share` cases, at a seeded place."""
    slots = set()
    for block in range(0, count, share):
        slots.add(block + rng.randrange(share))
    return slots


# -- oracle: criterion-3 fundamental-solution oracle at n = 3 ---------------


class Oracle:
    name = "oracle"
    count = 120
    n = 3

    def build(self, rng):
        negatives = _negative_slots(rng, self.count)
        spec, cases = [], []
        for k, degrees in enumerate(degree_skeleton(self.name, self.count, self.n, 3)):
            while True:
                tau = rand_matrix(rng, degrees)
                if gs.leading_minors_nonzero(tau, PROBE):
                    break
            spec.append([tau, k in negatives])
            cases.append((to_mat(tau), k in negatives))
        return spec, cases

    def submit(self, case):
        tau, negative = case
        g = au.GroupElement(tau)
        a = au.log_deriv(g)
        flag = hs.flag_coords(g)
        if negative:
            flag = hs.FlagCoords(_plus_t(flag.lam, 1, 0))
        results = [hs.reduce_by_flag(a, flag)]
        for m in range(1, self.n):
            plane = hs.plucker_coords(_first_cols(tau, m), m)
            if negative:
                plane = hs.PlaneCoords(self.n, m, _plus_t(plane.Lambda, 0, 0))
            results.append(hs.reduce_by_plane(a, plane))
        return results

    def check(self, case, results):
        expect = not case[1]
        flag, *planes = results
        ok = flag.is_solution == expect and _strictly_lower_zero(flag.field.matrix) == expect
        for m, r in enumerate(planes, start=1):
            b21 = r.field.matrix.block_split(m)[2]
            ok &= r.is_solution == expect and b21.is_zero() == expect
        return ok


# -- cocycle: criterion-5 log-derivative laws at n = 3 ----------------------


class Cocycle:
    name = "cocycle"
    count = 120
    n = 3

    def _invertible(self, rng, degrees):
        while True:
            m = rand_matrix(rng, degrees)
            if gs.det_at(m, PROBE) != (0, 0):
                return m

    def build(self, rng):
        spec, cases = [], []
        skeleton = degree_skeleton(self.name, 2 * self.count, self.n, 1)
        for k in range(self.count):
            sigma = self._invertible(rng, skeleton[2 * k])
            tau = self._invertible(rng, skeleton[2 * k + 1])
            spec.append([sigma, tau])
            cases.append((to_mat(sigma), to_mat(tau)))
        return spec, cases

    def submit(self, case):
        s, u = au.GroupElement(case[0]), au.GroupElement(case[1])
        lhs = au.log_deriv(s * u).matrix
        rhs = au.log_deriv(s).matrix + au.adjoint(s, au.log_deriv(u)).matrix
        inv = s.inverse()
        inverse_law = au.log_deriv(inv).matrix == -au.adjoint(inv, au.log_deriv(s)).matrix
        return lhs == rhs, inverse_law, lhs == _plus_t(rhs, 0, 0)

    def check(self, case, answer):
        return answer == (True, True, False)


# -- pointwise: small-operand checks over Q(i) ------------------------------


def _rand_q(rng, span, den):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _peval_q(p, x):
    """Value of a Gaussian-integer polynomial at a rational point, as (re, im)."""
    re = im = Fraction(0)
    for c in reversed(p):
        re, im = re * x + c[0], im * x + c[1]
    return re, im


class _Curve:
    """y^2 = 4x^3 - g2 x - g3 over Q with the chord-tangent law, in Fractions."""

    def __init__(self, g2, g3):
        self.g2, self.g3 = Fraction(g2), Fraction(g3)

    def on(self, p):
        x, y = p
        return y * y == 4 * x ** 3 - self.g2 * x - self.g3

    def add(self, p, q):
        (x1, y1), (x2, y2) = p, q
        if x1 == x2:
            s = (12 * x1 * x1 - self.g2) / (2 * y1)
        else:
            s = (y2 - y1) / (x2 - x1)
        x3 = s * s / 4 - x1 - x2
        return x3, -(y1 + s * (x3 - x1))


class Pointwise:
    """One small check per case, the kinds taken in turn so each run has the same mix."""

    name = "pointwise"
    count = 1000
    kinds = ("so3", "chord", "pendulum", "quadrature", "parse")
    multiples = 4  # sums kP + jP for 1 <= k, j <= multiples

    def __init__(self):
        g2, g3, gen = 4, -4, (Fraction(1), Fraction(2))
        self.curve = _Curve(g2, g3)
        pts = [None, gen]
        for _ in range(2 * self.multiples - 1):
            pts.append(self.curve.add(pts[-1], gen))
        # non-torsion: no multiple is the identity, and one is not integral
        if not all(self.curve.on(p) for p in pts[1:]) or all(p[0].denominator == 1 for p in pts[1:]):
            raise RuntimeError("multiples table is not a non-torsion orbit")
        self.pts = pts
        self.el_curve = el.WeierstrassCurve(g2, g3)

    def _point(self, p):
        return el.CurvePoint(rf.RatFunc.const(GaussianRational(p[0])),
                             rf.RatFunc.const(GaussianRational(p[1])))

    def build(self, rng):
        spec, cases = [], []
        for k in range(self.count):
            kind = self.kinds[k % len(self.kinds)]
            raw, case = getattr(self, f"_build_{kind}")(rng)
            spec.append([kind, raw])
            cases.append((kind, case))
        return spec, cases

    def _build_so3(self, rng):
        """Pushforward at an exact sphere point; the field has no pole at t0."""
        t0 = _rand_q(rng, 4, 3)
        while True:
            coeffs = [(gs.rand_poly(rng, 2, 2), gs.rand_poly(rng, 1, 2)) for _ in range(3)]
            if all(den and _peval_q(den, t0) != (0, 0) for _, den in coeffs):
                break
        u, v = _rand_q(rng, 3, 3), _rand_q(rng, 3, 3)
        d = u * u + v * v + 1
        sphere = (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)
        field = dx.SO3Field(*(to_rf(n, den) for n, den in coeffs))
        return ([str(t0), coeffs, [str(c) for c in sphere]],
                (field, dx.SpherePoint(*sphere), GaussianRational(t0)))

    def _build_chord(self, rng):
        """jP + kP against the table, both orders, and a point off the curve."""
        j, k = rng.randint(1, self.multiples), rng.randint(1, self.multiples)
        pa = self.pts[j]
        points = (self.pts[j], self.pts[k], self.pts[j + k], (pa[0], pa[1] + 1))
        return [j, k], tuple(self._point(p) for p in points)

    def _build_pendulum(self, rng):
        h = _rand_q(rng, 9, 4)
        while abs(h) == 1:
            h = _rand_q(rng, 9, 4)
        return str(h), (el.PendulumParams(GaussianRational(h)), GaussianRational(h * h / 3),
                        GaussianRational(h ** 3 / 27 + Fraction(1, 16)))

    def _build_quadrature(self, rng):
        """b = p/q with b' = (p'q - pq')/q^2 and b'/b = (p'q - pq')/(pq), built here."""
        p = q = gs.ZERO
        while not p or not q:
            p, q = gs.rand_poly(rng, 3, 2), gs.rand_poly(rng, 3, 2)
        w = gs.psub(gs.pmul(gs.pderiv(p), q), gs.pmul(p, gs.pderiv(q)))
        qq, pq = gs.pmul(q, q), gs.pmul(p, q)
        return [p, q], (to_rf(p, q), to_rf(w, qq), to_rf(gs.padd(w, qq), qq),
                        to_rf(w, pq), to_rf(gs.padd(w, gs.pmul(gs.T, pq)), pq))

    def _build_parse(self, rng):
        """Text built here must parse to the value; printed values must round-trip."""
        num, den = gs.rand_poly(rng, 2, 3), gs.ZERO
        while not den:
            den = gs.rand_poly(rng, 2, 3)
        mat = [[gs.rand_poly(rng, 1, 3) for _ in range(2)] for _ in range(2)]
        text = f"({gs.fmt_poly(num)})/({gs.fmt_poly(den)})"
        return [num, den, mat], (text, to_rf(num, den), to_mat(mat))

    def submit(self, case):
        kind, data = case
        if kind == "so3":
            return dx.so3_pushforward_check(*data)
        if kind == "chord":
            pa, pb, total, bad = data
            s1 = el.chord_tangent_add(self.el_curve, pa, pb)
            s2 = el.chord_tangent_add(self.el_curve, pb, pa)
            return (s1 == total, s1 == s2, el.on_curve(self.el_curve, s1),
                    el.on_curve(self.el_curve, bad))
        if kind == "pendulum":
            params, g2, g3 = data
            curve, audit = el.pendulum_normal_form(params)
            return audit.holds, curve.g2 == g2, curve.g3 == g3
        if kind == "quadrature":
            b, a_int, wrong_int, a_exp, wrong_exp = data
            return (rf.check_integral_solution(a_int, b), rf.check_integral_solution(wrong_int, b),
                    rf.check_exponential_solution(a_exp, b),
                    rf.check_exponential_solution(wrong_exp, b))
        text, x, mat = data
        return (ps.parse_ratfunc(text) == x, ps.parse_ratfunc(ps.format_ratfunc(x)) == x,
                ps.parse_matrix(ps.format_matrix(mat)) == mat)

    EXPECTED = {"so3": True, "chord": (True, True, True, False), "pendulum": (True, True, True),
                "quadrature": (True, False, True, False), "parse": (True, True, True)}

    def check(self, case, answer):
        return answer == self.EXPECTED[case[0]]


# -- cli: one fresh `python -m lievessiot.cli` process per case -------------

# README examples with the records worked out by hand from the formulas
# (Riccati x' = a21 + (a22 - a11)x - a12 x^2, the README's flag display,
# B = tau A tau^-1 + tau' tau^-1, chord-tangent doubling, h^2/3 and
# h^3/27 + 1/16).
README_CASES = [
    (["riccati", "--A=[t, 1; 0, -t]", "--m=1"], 0,
     {"command": "riccati", "n": 2, "m": 1, "equations": {"x": {"x": "-2*t", "x^2": "-1"}}}),
    (["flag", "--A=[0, 1, 0; 0, 0, 1; t, 0, 0]"], 0,
     {"command": "flag", "n": 3, "equations": {"x": {"x^2": "-1", "y": "1"},
                                               "y": {"1": "t", "x*y": "-1"},
                                               "z": {"x*z": "1", "y": "-1", "z^2": "-1"}}}),
    (["reduce-plane", "--A=[0, 0; 1, 0]", "--L=[t]", "--m=1"], 0,
     {"command": "reduce-plane", "B": "[0, 0; 0, 0]", "tau": "[1, 0; -t, 1]", "is_solution": True}),
    (["reduce-flag", "--A=[0, 0; 1, 0]", "--L=[1, 0; t, 1]"], 0,
     {"command": "reduce-flag", "B": "[0, 0; 0, 0]", "tau": "[1, 0; -t, 1]", "is_solution": True}),
    (["check", "--kind=integral", "--a=2*t", "--b=t^2"], 0,
     {"command": "check", "kind": "integral", "result": True}),
    (["check", "--kind=integral", "--a=2*t + 1", "--b=t^2"], 2,
     {"command": "check", "kind": "integral", "result": False}),
    (["check", "--kind=exponential", "--a=3/(t - 1)", "--b=(t - 1)^3"], 0,
     {"command": "check", "kind": "exponential", "result": True}),
    (["check", "--kind=automorphic", "--A=[0, 1; 0, 0]", "--sigma=[1, t; 0, 1]"], 0,
     {"command": "check", "kind": "automorphic", "result": True}),
    (["so3", "--a=1", "--b=t", "--c=0", "--check-point=2/3,2/3,1/3"], 0,
     {"command": "so3", "q0": "-1/2*t", "q1": "-i", "q2": "-1/2*t", "pushforward_ok": True}),
    (["elliptic", "add", "--g2=4", "--g3=-4", "--P=1,2", "--Q=1,2"], 0,
     {"command": "elliptic-add", "result": "-1, 2"}),
    (["pendulum", "--h=2"], 0,
     {"command": "pendulum", "g2": "4/3", "g3": "155/432", "audit_ok": True}),
]


def _unipotent(rng, n):
    return [[gs.ONE if i == j else gs.rand_poly(rng, 1, 2) if i > j else gs.ZERO
             for j in range(n)] for i in range(n)]


def _field(tau):
    """A = l(tau) = tau' tau^-1, polynomial because tau is unipotent."""
    return gs.mmul(gs.mderiv(tau), gs.unipotent_inverse(tau))


def _plane(tau, m):
    """Chart point Y U^-1 of the span of tau's first m columns."""
    top = [row[:m] for row in tau[:m]]
    return gs.mmul([row[:m] for row in tau[m:]], gs.unipotent_inverse(top))


def _bumped(m, i, j):
    out = [list(row) for row in m]
    out[i][j] = gs.padd(out[i][j], gs.T)
    return out


class Cli:
    name = "cli"
    rounds = 3

    def __init__(self, env, root, traced=False):
        self.env, self.root, self.traced = env, root, traced
        self._seen = {}  # (argv, stdout) -> verdict, for commands submitted again

    def build(self, rng):
        cases = [(argv, code, ("record", want)) for argv, code, want in README_CASES]
        for _ in range(self.rounds):
            for n in (4, 5, 6):
                tau = _unipotent(rng, n)
                cases.append((["flag", f"--A={gs.fmt_matrix(_field(tau))}"], 0,
                              ("flag", tau)))
            tau = _unipotent(rng, 4)
            a = f"--A={gs.fmt_matrix(_field(tau))}"
            lam = _plane(tau, 2)
            cases.append((["riccati", a, "--m=2"], 0, ("riccati", lam)))
            for good in (True, False):
                code = 0 if good else 2
                flag = tau if good else _bumped(tau, 1, 0)
                plane = lam if good else _bumped(lam, 0, 0)
                sigma = tau if good else _bumped(tau, 2, 1)
                cases += [
                    (["reduce-flag", a, f"--L={gs.fmt_matrix(flag)}"], code, ("borel", good)),
                    (["reduce-plane", a, f"--L={gs.fmt_matrix(plane)}", "--m=2"], code,
                     ("block", good)),
                    (["check", "--kind=flag", a, f"--L={gs.fmt_matrix(flag)}"], code,
                     ("verdict", good)),
                    (["check", "--kind=riccati", a, f"--L={gs.fmt_matrix(plane)}", "--m=2"], code,
                     ("verdict", good)),
                    (["check", "--kind=automorphic", a, f"--sigma={gs.fmt_matrix(sigma)}"], code,
                     ("verdict", good)),
                ]
        cases = [(argv + ["--format=record"], code, want) for argv, code, want in cases]
        return [[argv, code] for argv, code, _ in cases], cases

    def submit(self, case):
        if self.traced:
            cmd = [sys.executable, str(self.root / "perfbench" / "child.py")]
        else:
            cmd = [sys.executable, "-m", "lievessiot.cli"]
        return subprocess.run(cmd + case[0], capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=120)

    def check(self, case, proc):
        argv, code, want = case
        key = (tuple(argv), proc.stdout)
        if key not in self._seen:
            self._seen[key] = self._validate(want, proc.stdout)
        return proc.returncode == code and self._seen[key]

    def _validate(self, want, stdout):
        try:
            rec = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        if rec.pop("format_version", None) != 1:
            return False
        kind, data = want
        if kind == "record":
            return rec == data
        if kind == "verdict":
            return rec.get("result") is data
        if kind in ("borel", "block"):
            b = ps.parse_matrix(rec["B"])
            reduced = _strictly_lower_zero(b) if kind == "borel" else b.block_split(2)[2].is_zero()
            return rec["is_solution"] is data and reduced is data
        # flag / riccati: the known solution must satisfy the printed system
        if kind == "flag":
            n = len(data)
            values = {f"l{i + 1}{j + 1}": data[i][j] for j in range(n) for i in range(j + 1, n)}
        else:
            unknowns = [(i, j) for j in range(len(data[0])) for i in range(len(data))]
            values = {name: data[i][j] for name, (i, j) in zip("xyzw", unknowns)}
        return set(rec["equations"]) == set(values) and all(
            _evaluate(eq, values) == to_rf(gs.pderiv(values[name]))
            for name, eq in rec["equations"].items())


def _evaluate(equation, values):
    """Sum of coeff * monomial of one printed equation at polynomial values."""
    total = rf.RF_ZERO
    for mono, coeff in equation.items():
        term = ps.parse_ratfunc(coeff)
        if mono != "1":
            for factor in mono.split("*"):
                name, _, power = factor.partition("^")
                term = term * to_rf(values[name]) ** int(power or 1)
        total = total + term
    return total


def make(name, env=None, root=None, traced=False):
    if name == "cli":
        return Cli(env, root, traced)
    return {"oracle": Oracle, "cocycle": Cocycle, "pointwise": Pointwise}[name]()
