"""Command-line front end: traces, series coefficients, verification runs.

Subcommands
-----------
trace        one twisted trace Tr_{d,D}(j_m), in the regime of d*D
coeff        the limit coefficient a(d, D) from the series side
qforms list  class representatives for one discriminant
jm coeffs    q-expansion of j_m
verify       cross-checks: prop1, thm2, kloosterman, symmetry, values
table        CSV of traces over a range of discriminants

Exit codes: 0 success, 1 domain error, 2 verification discrepancy,
64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import warnings

from . import geodesic, modfun, poincare, qform, series

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64


# ------------------------------------------------------------ subcommands

def _cmd_trace(args) -> int:
    res = geodesic.trace(args.d, args.D, args.m, args.route)
    print(json.dumps(dataclasses.asdict(res), sort_keys=True))
    return EXIT_OK


def _cmd_coeff(args) -> int:
    sv = series.coeff_a(args.d, args.D, args.cmax)
    print(json.dumps({"d": args.d, "D": args.D, **dataclasses.asdict(sv)}, sort_keys=True))
    return EXIT_OK


def _cmd_qforms_list(args) -> int:
    d = args.disc
    if d < 0:
        cl = qform.classes_negative(d)
        for Q, order in zip(cl.reps, cl.stab_orders):
            print(json.dumps({"a": Q.a, "b": Q.b, "c": Q.c, "stab_order": order}))
    elif d > 0:
        cl = qform.classes_square(d) if math.isqrt(d) ** 2 == d else qform.classes_nonsquare(d)
        for Q in cl.reps:
            print(json.dumps({"a": Q.a, "b": Q.b, "c": Q.c}))
    else:
        raise ValueError("disc must be nonzero")
    return EXIT_OK


def _cmd_jm_coeffs(args) -> int:
    coeffs = modfun.jm_coeffs(args.m, args.n)
    print(f"# jm m={args.m} N={args.n} version=1", *map(repr, coeffs), sep="\n")
    return EXIT_OK


def _verify_report(name: str, lhs: float, rhs: float, tol: float, relative: bool) -> int:
    lhs, rhs = float(lhs), float(rhs)
    delta = abs(lhs - rhs)
    bound = float(tol) * max(abs(lhs), abs(rhs)) if relative else float(tol)
    ok = bool(delta <= bound)
    print(
        json.dumps(
            {
                "check": name,
                "lhs": lhs,
                "rhs": rhs,
                "abs_delta": delta,
                "tolerance": bound,
                "pass": ok,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _worst_report(name: str, worst: float, tol: float) -> int:
    print(json.dumps({"check": name, "worst_abs_delta": worst, "pass": worst <= tol}))
    return EXIT_OK if worst <= tol else EXIT_VERIFY


def _cmd_verify_prop1(args) -> int:
    lhs, lhs_err = poincare.prop1_lhs(args.d, args.D, args.m, args.s, args.bound)
    rhs = series.prop1_rhs(args.d, args.D, args.m, args.s, c_max=args.cmax)
    tol = args.tol if args.tol is not None else (1e-3 if args.m == 0 else 1e-2)
    return _verify_report("prop1", lhs, rhs.value, tol, relative=True)


def _cmd_verify_thm2(args) -> int:
    if min(args.d, args.D) <= 0 or math.isqrt(args.d * args.D) ** 2 != args.d * args.D:
        raise ValueError(f"verify thm2 needs d, D > 0 and d·D a square, got d={args.d}, D={args.D}")
    tr = geodesic.trace_square(args.d, args.D, args.m)
    rhs = series.thm2_rhs(args.d, args.D, args.m)
    tol = args.tol if args.tol is not None else (rhs.tail_estimate + tr.err_estimate)
    return _verify_report("thm2", tr.value, rhs.value, tol, relative=False)


def _cmd_verify_kloosterman(args) -> int:
    worst = 0.0
    for d, D in [(1, 1), (4, 1), (9, 1), (5, 5)]:
        for m in range(1, 7):
            for c in range(1, args.cmax + 1):
                lhs = series.s_m_sum(m, d, D, 4 * c)
                rhs = 0.5 * sum(
                    series.kronecker(D, n)
                    * math.sqrt(n / c)
                    * series.kloosterman_plus(d, m * m * D // (n * n), 4 * c // n)
                    for n in series.divisors(math.gcd(m, c))
                )
                worst = max(worst, abs(lhs - rhs))
    return _worst_report("kloosterman", worst, 1e-9)


def _cmd_verify_symmetry(args) -> int:
    worst = 0.0
    for c in range(1, args.cmax + 1):
        for d in range(0, 13):
            if d % 4 not in (0, 1):
                continue
            for D in range(0, d + 1):
                if D % 4 not in (0, 1):
                    continue
                a = series.kloosterman_plus(d, D, 4 * c)
                b = series.kloosterman_plus(D, d, 4 * c)
                worst = max(worst, abs(a - b))
    return _worst_report("symmetry", worst, 1e-9)


def _cmd_verify_values(args) -> int:
    targets = {(-3, 1, 1): -248.0, (-4, 1, 1): 492.0, (-7, 1, 1): -4119.0}
    worst = 0.0
    for (d, D, m), want in targets.items():
        got = geodesic.trace_negative(d, D, m).value
        worst = max(worst, abs(got - want))
    return _worst_report("values", worst, 1e-6)


def _cmd_table(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(["d", "D", "m", "value", "method", "err_estimate", "params"])
    failed = False
    for d in range(args.d_min, args.d_max + 1):
        if d % 4 not in (0, 1) or d * args.D == 0:
            writer.writerow([d, args.D, args.m, "", "skipped", "", "{}"])
            continue
        try:
            res = geodesic.trace(d, args.D, args.m)
        except (ValueError, ArithmeticError) as exc:
            # one failed d leaves a row of its own; the rest of the range still runs
            print(f"error: {exc}", file=sys.stderr)
            writer.writerow([d, args.D, args.m, "", "failed", "", json.dumps({"error": str(exc)})])
            failed = True
            continue
        writer.writerow(
            [
                res.d,
                res.D,
                res.m,
                repr(res.value),
                res.method,
                repr(res.err_estimate),
                json.dumps(res.params, sort_keys=True),
            ]
        )
    return EXIT_DOMAIN if failed else EXIT_OK


# --------------------------------------------------------------- dispatch

def _number(cast, floor=None, ceiling=math.inf):
    """An option type: cast(text) in [floor, ceiling], and positive and finite when floor is None.

    Every --cmax has the ceiling series.C_MAX_LIMIT, so each modulus 4c stays
    within series.MODULUS_LIMIT.
    """

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if floor is None and not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value}")
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling}, got {value}")
        if floor is not None and value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


def _ints(parser: argparse.ArgumentParser, *names: str, **defaults: int) -> None:
    """The integer options --name, in order; one is required unless it has a default."""
    for name in names:
        parser.add_argument(
            f"--{name}", type=int, required=name not in defaults, default=defaults.get(name)
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    p = _Parser(prog="mocktrace", description="Traces of modular functions over quadratic forms")
    sub = p.add_subparsers(dest="command", required=True)

    m_index = _number(int, 0, modfun.M_MAX)  # j_m's index; each trace regime keeps its own floor
    t = sub.add_parser("trace", help="one twisted trace")
    _ints(t, "d", "D")
    t.add_argument("--m", type=m_index, required=True)
    t.add_argument("--route", choices=["vertical", "semicircle"], default="vertical")
    t.set_defaults(func=_cmd_trace)

    c = sub.add_parser("coeff", help="series-side coefficient a(d, D)")
    _ints(c, "d", "D")
    c.add_argument("--cmax", type=_number(int, series.C_MAX_FLOOR, series.C_MAX_LIMIT))
    c.set_defaults(func=_cmd_coeff)

    q = sub.add_parser("qforms", help="quadratic form utilities")
    qs = q.add_subparsers(dest="qcommand", required=True)
    ql = qs.add_parser("list", help="class representatives for one discriminant")
    _ints(ql, "disc")
    ql.set_defaults(func=_cmd_qforms_list)

    j = sub.add_parser("jm", help="Faber basis utilities")
    js = j.add_subparsers(dest="jcommand", required=True)
    jc = js.add_parser("coeffs", help="print the q-expansion of j_m")
    jc.add_argument("--m", type=m_index, required=True)
    jc.add_argument("--n", type=_number(int, 1, modfun.N_MAX), required=True)
    jc.set_defaults(func=_cmd_jm_coeffs)

    v = sub.add_parser("verify", help="cross-checks between pipelines")
    vs = v.add_subparsers(dest="vcommand", required=True)

    vp = vs.add_parser("prop1")
    _ints(vp, "d", "D", d=1, D=1)
    vp.add_argument("--m", type=_number(int, 0), default=0)
    vp.add_argument("--s", type=float, default=2.0)
    vp.add_argument("--bound", type=_number(int, ceiling=poincare.BOUND_LIMIT))
    vp.add_argument("--cmax", type=_number(int, series.C_MAX_FLOOR, series.C_MAX_LIMIT), default=10_000)
    vp.add_argument("--tol", type=_number(float))
    vp.set_defaults(func=_cmd_verify_prop1)

    vt = vs.add_parser("thm2")
    _ints(vt, "d", "D")
    vt.add_argument("--m", type=_number(int, 1, modfun.M_MAX), required=True)
    vt.add_argument("--tol", type=_number(float))
    vt.set_defaults(func=_cmd_verify_thm2)

    vk = vs.add_parser("kloosterman")
    vk.add_argument("--cmax", type=_number(int, 1, series.C_MAX_LIMIT), default=50)
    vk.set_defaults(func=_cmd_verify_kloosterman)

    vy = vs.add_parser("symmetry")
    vy.add_argument("--cmax", type=_number(int, 1, series.C_MAX_LIMIT), default=100)
    vy.set_defaults(func=_cmd_verify_symmetry)

    vv = vs.add_parser("values")
    vv.set_defaults(func=_cmd_verify_values)

    tb = sub.add_parser("table", help="CSV of traces over a d-range")
    _ints(tb, "D")
    tb.add_argument("--m", type=m_index, required=True)
    _ints(tb, "d-min", "d-max")
    tb.set_defaults(func=_cmd_table)

    return p


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    # warnings in the user's terms, without the source file and line that raised them
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
