"""Expression parser and canonical pretty-printer for K-valued input.

Grammar (recursive descent, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | 'i' | 't' | '(' expr ')'

'^' takes a literal nonnegative integer exponent and binds tighter than
unary minus, so -t^2 means -(t^2).  Matrices are written row-major as
[a, b; c, d].  The printer emits canonical text that reparses to the
same value (round-trip law), with the monic-denominator normalization
visible in the output.

Three bounds are checked while parsing, before anything is evaluated, so
that deep nesting cannot exhaust the stack and stacked exponents or large
matrices cannot run for minutes: at most 64 parentheses and unary minus
signs may be open at once; the '^' exponents on a chain of nested powers
may multiply to at most 100, so ((t + 1)^10)^10 is allowed and
((t + 1)^100)^2 is not ((t + 1)^100 takes about a tenth of a second); and
a matrix has at most 12 rows and 12 columns (the flag system of a 12 x 12
matrix takes about a second, and its cost roughly doubles with each row).
Input beyond any of these bounds raises LimitExceeded.  Chains of '+ -'
or '* /' are evaluated in a loop, so their length is not bounded.

A fourth bound holds while evaluating: before each '+ - * /' and '^',
an upper bound on deg num + deg den of the result, and of every
intermediate result of the operation, is computed from the operands'
degrees (k (deg num + deg den) for '^k'; max(deg num) + deg den for a
sum or difference over one shared denominator), and above 400 the input
raises LimitExceeded before the operation runs.  So (t + 1/(t - 1))^100,
of degree 300, and its sum with itself are allowed, and a product of two
such powers, or their sum over different denominators, is not; nor does
a printed value above that degree parse back.
"""

from __future__ import annotations

from .errors import (DivisionByZero, DivisionByZeroFunction, ExprSyntaxError, LimitExceeded,
                     RaggedRows)
from .matrix import MatK
from .ratfunc import Poly, RatFunc
from .scalars import GaussianRational

_SYMBOLS = "+-*/^()[],;"
_MAX_NESTING = 64  # parentheses and unary minus signs open at once
_MAX_EXPONENT = 100  # product of the exponents on a chain of nested powers
_MAX_DEGREE = 400  # deg num + deg den of every intermediate result
_MAX_SIZE = 12  # rows, and columns, of a matrix


def tokenize(src: str):
    """List of (kind, value, position); kinds: int, ident, sym."""
    out = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and src[pos].isdigit():
                pos += 1
            out.append(("int", int(src[start:pos]), start))
            continue
        if ch.isalpha():
            if ch in ("i", "t"):
                out.append(("ident", ch, pos))
                pos += 1
                continue
            raise ExprSyntaxError(f"unexpected identifier {ch!r}", pos)
        if ch in _SYMBOLS:
            out.append(("sym", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    out.append(("end", None, n))
    return out


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.idx = 0
        self.depth = 0
        # largest product of nested '^' exponents in the group being parsed,
        # and in the atom just parsed
        self.scale = 1
        self.atom_scale = 1

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def nested(self, parse, pos):
        """parse() one nesting level deeper; LimitExceeded past _MAX_NESTING."""
        if self.depth == _MAX_NESTING:
            raise LimitExceeded(f"expression nested deeper than {_MAX_NESTING} levels "
                                f"(at position {pos})")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expect_sym(self, sym: str):
        kind, value, pos = self.next()
        if kind != "sym" or value != sym:
            raise ExprSyntaxError(f"expected {sym!r}", pos)

    # expression grammar -> small tuple AST

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.next()
                node = ("bin", value, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "*/":
                self.next()
                node = ("bin", value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "sym" and value == "-":
            self.next()
            return ("neg", self.nested(self.unary, pos))
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.next()
            ekind, evalue, epos = self.next()
            if ekind != "int":
                raise ExprSyntaxError("exponent must be a nonnegative integer literal", epos)
            scale = self.atom_scale * evalue
            if scale > _MAX_EXPONENT:
                raise LimitExceeded(f"exponents multiply to {scale}, more than {_MAX_EXPONENT} "
                                    f"(at position {epos})")
            self.scale = max(self.scale, scale)
            node = ("pow", node, evalue)
        return node

    def atom(self):
        kind, value, pos = self.next()
        self.atom_scale = 1
        if kind == "int":
            return ("int", value)
        if kind == "ident":
            return (value,)
        if kind == "sym" and value == "(":
            outer, self.scale = self.scale, 1
            node = self.nested(self.expr, pos)
            self.expect_sym(")")
            self.atom_scale = self.scale
            self.scale = max(outer, self.scale)
            return node
        raise ExprSyntaxError("expected a number, i, t or parenthesized expression", pos)

    # matrices

    def matrix(self):
        self.expect_sym("[")
        rows = [[self.expr()]]
        while True:
            kind, value, pos = self.next()
            if kind == "sym" and value == ",":
                _check_size(len(rows[-1]), "columns", pos)
                rows[-1].append(self.expr())
            elif kind == "sym" and value == ";":
                _check_size(len(rows), "rows", pos)
                rows.append([self.expr()])
            elif kind == "sym" and value == "]":
                break
            else:
                raise ExprSyntaxError("expected ',', ';' or ']'", pos)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise RaggedRows("matrix rows have different lengths")
        return rows

    def finish(self):
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)


def eval_expr(node) -> RatFunc:
    """Evaluate an expression tree to a canonical RatFunc."""
    tag = node[0]
    if tag == "int":
        return RatFunc.const(node[1])
    if tag == "i":
        return RatFunc.const(GaussianRational(0, 1))
    if tag == "t":
        return RatFunc.t()
    if tag == "neg":
        return -eval_expr(node[1])
    if tag == "pow":
        base = eval_expr(node[1])
        _check_degree(node[2] * (max(base.num.degree, 0) + base.den.degree))
        return base ** node[2]
    if tag == "bin":
        # a chain a op b op c ... is left-nested; walk its spine in a loop
        chain = []
        while node[0] == "bin":
            chain.append((node[1], node[3]))
            node = node[2]
        acc = eval_expr(node)
        for op, right in reversed(chain):
            acc = _apply(op, acc, eval_expr(right))
        return acc
    raise ValueError(f"bad expression node {node!r}")


def _check_degree(bound: int):
    if bound > _MAX_DEGREE:
        raise LimitExceeded(f"an intermediate result of degree up to {bound}, "
                            f"more than {_MAX_DEGREE}")


def _check_size(count: int, what: str, pos: int):
    # called before a matrix gets one more row or column
    if count == _MAX_SIZE:
        raise LimitExceeded(f"matrix with more than {_MAX_SIZE} {what} (at position {pos})")


def _apply(op, lhs: RatFunc, rhs: RatFunc) -> RatFunc:
    an, ad = max(lhs.num.degree, 0), lhs.den.degree
    bn, bd = max(rhs.num.degree, 0), rhs.den.degree
    if op not in "+-":
        _check_degree(an + ad + bn + bd)
    elif lhs.den == rhs.den:
        _check_degree(max(an, bn) + ad)
    else:
        _check_degree(max(an + bd, bn + ad) + ad + bd)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    try:
        return lhs / rhs
    except DivisionByZero:
        raise DivisionByZeroFunction("denominator simplifies to the zero function") from None


def parse_expr(src: str):
    p = _Parser(src)
    node = p.expr()
    p.finish()
    return node


def parse_ratfunc(src: str) -> RatFunc:
    return eval_expr(parse_expr(src))


def parse_gaussian(src: str) -> GaussianRational:
    value = parse_ratfunc(src)
    if not value.is_constant():
        raise ExprSyntaxError("expected a constant (no t allowed)", 0)
    return value.constant_value()


def parse_matrix(src: str) -> MatK:
    p = _Parser(src)
    rows = p.matrix()
    p.finish()
    return MatK.from_rows([[eval_expr(e) for e in row] for row in rows])


# -- canonical printing ------------------------------------------------------


def format_gaussian(g: GaussianRational) -> str:
    re, im = g.re, g.im
    if im == 0:
        return str(re)
    if im == 1:
        im_str = "i"
    elif im == -1:
        im_str = "-i"
    else:
        im_str = f"{im}*i"
    if re == 0:
        return im_str
    if im < 0:
        mag = "i" if im == -1 else f"{-im}*i"
        return f"{re} - {mag}"
    return f"{re} + {im_str}"


def _term_pieces(c: GaussianRational, k: int):
    """(is_negative, text) for the monomial c * t^k, text without sign."""
    mono = None if k == 0 else ("t" if k == 1 else f"t^{k}")
    if c.im == 0:
        neg = c.re < 0
        mag = abs(c.re)
        if mono is None:
            return neg, str(mag)
        if mag == 1:
            return neg, mono
        return neg, f"{mag}*{mono}"
    if c.re == 0:
        neg = c.im < 0
        mag = abs(c.im)
        coeff = "i" if mag == 1 else f"{mag}*i"
        if mono is None:
            return neg, coeff
        return neg, f"{coeff}*{mono}"
    # mixed complex coefficient: parenthesize, keep sign inside
    inner = format_gaussian(c)
    if mono is None:
        return False, f"({inner})"
    return False, f"({inner})*{mono}"


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c.is_zero():
            continue
        neg, text = _term_pieces(c, k)
        if not parts:
            parts.append(("-" if neg else "") + text)
        else:
            parts.append(("- " if neg else "+ ") + text)
    return " ".join(parts)


def format_ratfunc(r: RatFunc) -> str:
    if r.is_constant():
        return format_gaussian(r.constant_value())
    num = format_poly(r.num)
    if r.den.degree == 0:
        return num
    den = format_poly(r.den)
    # a single term needs no parentheses; a mixed complex coefficient
    # already prints parenthesized
    if sum(not c.is_zero() for c in r.num.coeffs) != 1:
        num = f"({num})"
    if sum(not c.is_zero() for c in r.den.coeffs) != 1:
        den = f"({den})"
    return f"{num}/{den}"


def format_matrix(m: MatK) -> str:
    rows = []
    for i in range(m.rows):
        rows.append(", ".join(format_ratfunc(e) for e in m.row(i)))
    return "[" + "; ".join(rows) + "]"


def format_canonical(x) -> str:
    """Deterministic canonical text for RatFunc, MatK or Gaussian scalars."""
    if isinstance(x, RatFunc):
        return format_ratfunc(x)
    if isinstance(x, MatK):
        return format_matrix(x)
    if isinstance(x, GaussianRational):
        return format_gaussian(x)
    if isinstance(x, Poly):
        return format_poly(x)
    raise TypeError(f"cannot format {type(x).__name__}")
