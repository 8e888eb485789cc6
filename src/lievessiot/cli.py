"""Command-line surface.

Subcommands map 1:1 to library operations: riccati, flag, reduce-plane,
reduce-flag, check, so3, elliptic (curve/add/solve/check), pendulum.
Exit codes: 0 success, 2 a verification returned false, 1 error.
Record output (--format record) is a single JSON document with a
format_version field and sorted keys, so it is byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import darboux, elliptic, homspace
from .automorphic import (AutomorphicField, GroupElement,
                          check_automorphic_solution, is_in_subalgebra)
from .errors import DimensionMismatch, ToolkitError
from .matrix import MatK
from .homspace import NotASolutionWarning
from .mpoly import MPoly
from .parsing import (format_gaussian, format_matrix, format_ratfunc,
                      parse_gaussian, parse_matrix, parse_ratfunc)
from .ratfunc import RatFunc, check_exponential_solution, check_integral_solution

FORMAT_VERSION = 1


# -- helpers ----------------------------------------------------------------


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or NUL in the path
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ToolkitError(f"cannot read {path!r}: {reason}") from None


def _maybe_file(value: str) -> str:
    if value is not None and value.startswith("@"):
        return _read_file(value[1:])
    return value


def _payload(args, flag_value):
    """Main payload may come from --input FILE instead of the flag."""
    if flag_value is None:
        if getattr(args, "input", None):
            return _read_file(args.input)
        raise ToolkitError("missing required payload (flag or --input)")
    return _maybe_file(flag_value)


def _require(args, command: str, names):
    """Raise naming every argument in names that was not given."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ToolkitError(f"{command} requires {', '.join(missing)}")


def _apply_permute(mat: MatK, permute: str | None) -> MatK:
    if not permute:
        return mat
    if not mat.is_square:
        # before P A P^T, whose product would name shapes the user never gave
        raise DimensionMismatch("automorphic field must be square")
    n = mat.rows
    try:
        perm = [int(p) for p in permute.split(",")]
    except ValueError:
        perm = []
    if sorted(perm) != list(range(1, n + 1)):
        raise ToolkitError(f"--permute must be a permutation of 1..{n}")
    p = MatK.from_rows([[1 if perm[i] == j + 1 else 0 for j in range(n)] for i in range(n)])
    return p * mat * p.transpose()


def _unknown_names(unknowns):
    if len(unknowns) == 1:
        return {unknowns[0]: "x"}
    letters = ["x", "y", "z", "w"]
    if len(unknowns) <= len(letters):
        return {u: letters[k] for k, u in enumerate(unknowns)}
    return {(i, j): f"l{i}{j}" for (i, j) in unknowns}


def _coeff_str(c: RatFunc) -> str:
    s = format_ratfunc(c)
    if " " in s or "/" in s or s.startswith("-"):
        return f"({s})"
    return s


def _mono_str(mono, names) -> str:
    if not mono:
        return "1"
    counts: dict = {}
    for key in mono:
        counts[key] = counts.get(key, 0) + 1
    parts = []
    for key in sorted(counts):
        name = names[key]
        e = counts[key]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _equation_text(name, table, names) -> str:
    if not table:
        return f"{name}' = 0"
    parts = []
    for mono in sorted(table, key=lambda m: (len(m), m)):
        coeff = table[mono]
        mono_s = _mono_str(mono, names)
        if mono_s == "1":
            parts.append(format_ratfunc(coeff) if not parts else _coeff_str(coeff))
        elif coeff == RatFunc.const(1):
            parts.append(mono_s)
        elif coeff == RatFunc.const(-1):
            parts.append(f"-{mono_s}" if not parts else f"(-1)*{mono_s}")
        else:
            parts.append(f"{_coeff_str(coeff)}*{mono_s}")
    return f"{name}' = " + " + ".join(parts)


def _equations_record(tables, names):
    out = {}
    for unknown, table in tables.items():
        eq = {}
        for mono, coeff in table.items():
            eq[_mono_str(mono, names)] = format_ratfunc(coeff)
        out[names[unknown]] = eq
    return out


def _emit(args, text_lines, record):
    if args.format == "record":
        record["format_version"] = FORMAT_VERSION
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers ----------------------------------------------------


def _cmd_table(args) -> int:
    a = _apply_permute(parse_matrix(_payload(args, args.A)), args.permute)
    field = AutomorphicField(a)
    if args.command == "riccati":
        sys_ = homspace.riccati_generate(field, args.m)
        tables = homspace.riccati_table(sys_)
        record = {"command": "riccati", "n": sys_.n, "m": sys_.m}
    else:
        sys_ = homspace.flag_generate(field)
        tables = homspace.flag_table(sys_)
        record = {"command": "flag", "n": sys_.n}
    names = _unknown_names(sys_.unknowns())
    lines = [_equation_text(names[u], tables[u], names) for u in sys_.unknowns()]
    record["equations"] = _equations_record(tables, names)
    _emit(args, lines, record)
    return 0


def _cmd_reduce(args) -> int:
    a = _apply_permute(parse_matrix(_payload(args, args.A)), args.permute)
    lam = parse_matrix(_maybe_file(args.L))
    field = AutomorphicField(a)
    if args.command == "reduce-plane":
        coords = homspace.PlaneCoords(a.rows, args.m, lam)
        reduce, shape = homspace.reduce_by_plane, "block"
    else:
        coords = homspace.FlagCoords(lam)
        reduce, shape = homspace.reduce_by_flag, "Borel"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotASolutionWarning)
        result = reduce(field, coords)
    tau = format_matrix(result.tau.sigma)
    b = format_matrix(result.field.matrix)
    verdict = "yes" if result.is_solution else f"NO ({shape} shape not guaranteed)"
    _emit(args, [f"tau = {tau}", f"B = {b}", f"solution: {verdict}"],
          {"command": args.command, "tau": tau, "B": b, "is_solution": result.is_solution})
    return 0 if result.is_solution else 2


# Arguments each check kind reads besides the payload --A (which _payload
# requires itself).
_CHECK_NEEDS = {
    "integral": ("a", "b"),
    "exponential": ("a", "b"),
    "automorphic": ("sigma",),
    "riccati": ("L", "m"),
    "flag": ("L",),
    "weierstrass": ("g2", "g3", "a", "b"),
    "subalgebra": ("shape",),
}


def _cmd_check(args) -> int:
    kind = args.kind
    needs = _CHECK_NEEDS.get(kind, ())
    if kind == "subalgebra" and args.shape == "block_upper":
        needs += ("m",)
    _require(args, f"check --kind {kind}", needs)
    if kind in ("integral", "exponential"):
        b = parse_ratfunc(_maybe_file(args.b))
        a = parse_ratfunc(_maybe_file(args.a))
        check = check_integral_solution if kind == "integral" else check_exponential_solution
        ok = check(a, b)
    elif kind == "automorphic":
        field = AutomorphicField(parse_matrix(_payload(args, args.A)))
        sigma = GroupElement(parse_matrix(_maybe_file(args.sigma)))
        ok = check_automorphic_solution(field, sigma)
    elif kind == "riccati":
        a = parse_matrix(_payload(args, args.A))
        lam = parse_matrix(_maybe_file(args.L))
        sys_ = homspace.riccati_generate(AutomorphicField(a), args.m)
        ok = homspace.riccati_check_solution(
            sys_, homspace.PlaneCoords(a.rows, args.m, lam))
    elif kind == "flag":
        a = parse_matrix(_payload(args, args.A))
        lam = parse_matrix(_maybe_file(args.L))
        ok = homspace.flag_check_solution(
            homspace.flag_generate(AutomorphicField(a)), homspace.FlagCoords(lam))
    elif kind == "weierstrass":
        curve = elliptic.WeierstrassCurve(parse_gaussian(args.g2), parse_gaussian(args.g3))
        ok = elliptic.check_weierstrass_solution(
            curve, parse_ratfunc(_maybe_file(args.a)), parse_ratfunc(_maybe_file(args.b)))
    elif kind == "subalgebra":
        field = AutomorphicField(parse_matrix(_payload(args, args.A)))
        ok = is_in_subalgebra(field, args.shape, args.m)
    else:
        raise ToolkitError(f"unknown check kind {kind!r}")
    _emit(args, ["true" if ok else "false"],
          {"command": "check", "kind": kind, "result": ok})
    return 0 if ok else 2


def _cmd_so3(args) -> int:
    field = darboux.SO3Field(parse_ratfunc(_maybe_file(args.a)),
                             parse_ratfunc(_maybe_file(args.b)),
                             parse_ratfunc(_maybe_file(args.c)))
    q0, q1, q2 = darboux.so3_to_riccati(field)
    x = MPoly.var("x")
    lines = [_equation_text("x", q0 + q1 * x + q2 * x * x, {"x": "x"})]
    record = {"command": "so3",
              "q0": format_ratfunc(q0), "q1": format_ratfunc(q1),
              "q2": format_ratfunc(q2)}
    if args.check_point:
        coords = [parse_gaussian(c) for c in args.check_point.split(",")]
        if len(coords) != 3:
            raise ToolkitError("--check-point needs three coordinates x0,x1,x2")
        point = darboux.SpherePoint(*coords)
        t0 = parse_gaussian(args.at if args.at is not None else "0")
        ok = darboux.so3_pushforward_check(field, point, t0)
        lines.append(f"pushforward check at t = {format_gaussian(t0)}: "
                     + ("OK" if ok else "FAIL"))
        record["pushforward_ok"] = ok
        _emit(args, lines, record)
        return 0 if ok else 2
    _emit(args, lines, record)
    return 0


def _parse_point(src: str) -> elliptic.CurvePoint:
    src = src.strip()
    if src.lower() in ("inf", "infinity", "o"):
        return elliptic.CurvePoint.infinity()
    coords = src.split(",")
    if len(coords) != 2:
        raise ToolkitError(f"a point is 'x,y' or 'inf', got {src!r}")
    return elliptic.CurvePoint(*(parse_ratfunc(c) for c in coords))


def _format_point(p: elliptic.CurvePoint) -> str:
    if p.infinite:
        return "inf"
    return f"{format_ratfunc(p.x)}, {format_ratfunc(p.y)}"


# Arguments each elliptic action reads besides --g2 and --g3.
_ELLIPTIC_NEEDS = {"add": ("P", "Q"), "check": ("a", "b"), "solve": ("a", "b", "point")}


def _cmd_elliptic(args) -> int:
    _require(args, f"elliptic {args.action}", _ELLIPTIC_NEEDS.get(args.action, ()))
    curve = elliptic.WeierstrassCurve(parse_gaussian(args.g2), parse_gaussian(args.g3))
    if args.action == "curve":
        report = elliptic.invariant_field_check(curve)
        lines = [
            f"curve: y^2 = 4*x^3 - ({format_gaussian(curve.g2)})*x - ({format_gaussian(curve.g3)})",
            f"discriminant: {format_gaussian(curve.discriminant())}",
            f"tangent generator: {report.adopted_coefficient}",
            "displayed 12x^2 - g2 coefficient tangent: "
            + ("yes" if report.displayed_is_tangent else "no (residual y*(12x^2 - g2))"),
        ]
        _emit(args, lines, {"command": "elliptic-curve",
                            "g2": format_gaussian(curve.g2),
                            "g3": format_gaussian(curve.g3),
                            "discriminant": format_gaussian(curve.discriminant()),
                            "displayed_is_tangent": report.displayed_is_tangent})
        return 0
    if args.action == "add":
        p = _parse_point(args.P)
        q = _parse_point(args.Q)
        total = elliptic.chord_tangent_add(curve, p, q)
        _emit(args, [_format_point(total)],
              {"command": "elliptic-add", "result": _format_point(total)})
        return 0
    if args.action == "check":
        ok = elliptic.check_weierstrass_solution(
            curve, parse_ratfunc(_maybe_file(args.a)), parse_ratfunc(_maybe_file(args.b)))
        _emit(args, ["true" if ok else "false"],
              {"command": "elliptic-check", "result": ok})
        return 0 if ok else 2
    if args.action == "solve":
        b = parse_ratfunc(_maybe_file(args.b))
        a = parse_ratfunc(_maybe_file(args.a))
        p0 = _parse_point(args.point)
        xi, eta = elliptic.paper_addition(curve, a, b, b.derive(), p0)
        _emit(args, [f"xi = {format_ratfunc(xi)}", f"eta = {format_ratfunc(eta)}"],
              {"command": "elliptic-solve", "xi": format_ratfunc(xi),
               "eta": format_ratfunc(eta)})
        return 0
    raise ToolkitError(f"unknown elliptic action {args.action!r}")


def _cmd_pendulum(args) -> int:
    params = elliptic.PendulumParams(parse_gaussian(args.h))
    curve, audit = elliptic.pendulum_normal_form(params)
    lines = [
        f"g2 = {format_gaussian(curve.g2)}",
        f"g3 = {format_gaussian(curve.g3)}",
        "audit " + ("OK" if audit.holds else "FAIL"),
    ]
    _emit(args, lines, {"command": "pendulum",
                        "g2": format_gaussian(curve.g2),
                        "g3": format_gaussian(curve.g3),
                        "audit_ok": audit.holds})
    return 0 if audit.holds else 2


# -- argument parser ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lievessiot",
        description="Exact toolkit for automorphic systems on matrix groups. "
                    "Expression grammar: integers, i, t, + - * / ^ (literal "
                    "nonnegative integer exponents; ^ binds tighter than unary "
                    "minus, so -t^2 = -(t^2)). Matrices: [a, b; c, d]. "
                    "Argument values starting with @ are read from a file.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, payload=True):
        p.add_argument("--format", choices=("text", "record"), default="text")
        if payload:
            p.add_argument("--input", help="file supplying the main payload (--A)")

    p = sub.add_parser("riccati", help="generate the matrix Riccati system of the m-plane chart")
    p.add_argument("--A", help="square matrix over K")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--permute", help="basis permutation p1,...,pn")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("flag", help="generate the flag system")
    p.add_argument("--A", help="square matrix over K")
    p.add_argument("--permute")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("reduce-plane", help="gauge A to block-upper form from a Riccati solution")
    p.add_argument("--A")
    p.add_argument("--L", required=True, help="(n-m) x m plane coordinates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--permute")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("reduce-flag", help="gauge A to upper-triangular form from a flag solution")
    p.add_argument("--A")
    p.add_argument("--L", required=True, help="unit-lower-triangular flag coordinates")
    p.add_argument("--permute")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check", help="exact solution checks (exit 2 when false)")
    p.add_argument("--kind", required=True,
                   choices=("integral", "exponential", "automorphic", "riccati",
                            "flag", "weierstrass", "subalgebra"))
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--A")
    p.add_argument("--sigma")
    p.add_argument("--L")
    p.add_argument("--m", type=int)
    p.add_argument("--g2")
    p.add_argument("--g3")
    p.add_argument("--shape",
                   choices=("skew_symmetric", "upper_triangular", "block_upper", "trace_zero"))
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("so3", help="Darboux reduction of an SO(3) field to a Riccati equation")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--check-point", dest="check_point",
                   help="exact sphere point x0,x1,x2 for the pushforward check")
    p.add_argument("--at", help="evaluation point t0 (default 0)")
    common(p, payload=False)
    p.set_defaults(func=_cmd_so3)

    p = sub.add_parser("elliptic", help="Weierstrass curve operations")
    p.add_argument("action", choices=("curve", "add", "check", "solve"))
    p.add_argument("--g2", required=True)
    p.add_argument("--g3", required=True)
    p.add_argument("--P", help="point 'x,y' or 'inf' (add)")
    p.add_argument("--Q", help="point 'x,y' or 'inf' (add)")
    p.add_argument("--a", help="field coefficient (check/solve)")
    p.add_argument("--b", help="candidate solution (check/solve)")
    p.add_argument("--point", help="constant curve point 'x0,y0' (solve)")
    common(p, payload=False)
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("pendulum", help="pendulum Weierstrass normal form with audit")
    p.add_argument("--h", required=True, dest="h")
    common(p, payload=False)
    p.set_defaults(func=_cmd_pendulum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
