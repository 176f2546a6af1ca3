"""Command-line interface.

Subcommands
-----------
table      characteristic polynomials for a list of n, with the root-line check
verify     identity checks (and optional mod-q counting cross-check) for one n
ehrhart    dilated-alcove lattice counts: direct enumeration vs. quasi-polynomial
decompose  split the alcove quasi-polynomial into per-mark pieces
roots      numeric roots of one characteristic polynomial + line certificate

Output is deterministic byte-for-byte for a fixed command line: rows are
emitted in argument order, rationals are printed as exact ``p/q`` strings,
floats at 17 significant digits.  On the tabular subcommands ``--format``
selects Markdown (default), CSV, or JSON; ``verify`` always emits a single
JSON record.  The exit status is 0 exactly when every requested check
passed (``table`` returns 0 whenever the computation itself succeeded).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .arrangements import (
    _ORACLE_POINT_BUDGET,
    char_poly,
    char_quasi,
    gcd_prime_polynomial,
    oracle_agreement_bound,
    oracle_count,
    verify_corollary1,
    verify_main_theorem,
    verify_rad_theorem,
)
from .ehrhart import decompose_ehrhart, denumerant_count, ehrhart_quasi
from .quasipoly import minimal_period, quasipoly_to_json
from .ratpoly import render_poly
from .rootline import verify_line
from .rootsystems import CLI_LABELS, catalog

# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _json_render(obj, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    The stdlib encoder formats floats with repr(); pinning ``%.17g`` keeps
    the byte output stable and round-trippable.  Dict key order is the
    insertion order of the dict being rendered, which the command builders
    fix explicitly.
    """
    pad = "  " * indent
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            pad + "  " + _json_render(v, indent + 1) for v in obj
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _json_render(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print_json(obj) -> None:
    sys.stdout.write(_json_render(obj) + "\n")


def _print_md_table(headers, rows) -> None:
    out = sys.stdout
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join(" --- " for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(str(c) for c in row) + " |\n")


def _print_csv_table(headers, rows) -> None:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _desc_coeffs(p) -> list:
    """Coefficients of a polynomial, highest degree first, as strings."""
    return [str(c) for c in reversed(p.coeffs)] if not p.is_zero else ["0"]


def _parse_n_list(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad n-list {text!r}; expected comma-separated integers")
    if not values:
        raise ValueError("empty n-list")
    if any(n < 0 for n in values):
        raise ValueError("n values must be >= 0")
    return values


def _exact_flag(report) -> str:
    """Render the exact-certificate outcome as yes / no."""
    return "yes" if report.symmetry_exact and report.sturm_exact else "no"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_row(info, n: int) -> dict:
    p = char_poly(info, n)
    target = Fraction(n * info.coxeter_h, 2)
    report = verify_line(p, target)
    return {
        "n": n,
        "poly": render_poly(p),
        "coeffs": _desc_coeffs(p),
        "real_part": str(target),
        "max_deviation": report.max_deviation,
        "exact": _exact_flag(report),
    }


def cmd_table(args) -> int:
    info = catalog(args.type)
    rows = [_table_row(info, n) for n in _parse_n_list(args.n_list)]

    if args.format == "json":
        _print_json(
            {
                "command": "table",
                "type": info.label,
                "rows": [
                    {
                        "n": r["n"],
                        "coeffs": r["coeffs"],
                        "real_part": r["real_part"],
                        "max_deviation": r["max_deviation"],
                        "exact": r["exact"],
                    }
                    for r in rows
                ],
            }
        )
    elif args.format == "csv":
        _print_csv_table(
            ["n", "coeffs", "real_part", "max_deviation", "exact"],
            [
                (
                    r["n"],
                    " ".join(r["coeffs"]),
                    r["real_part"],
                    _fmt_float(r["max_deviation"]),
                    r["exact"],
                )
                for r in rows
            ],
        )
    else:
        _print_md_table(
            ["n", "characteristic polynomial", "real part", "exact"],
            [(r["n"], r["poly"], r["real_part"], r["exact"]) for r in rows],
        )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Largest dilation factor that ``ehrhart`` compares.
_EHRHART_Q_MAX = 10**5


def _oracle_moduli(info, n: int, q_max: int) -> range:
    """The moduli the oracle sweep checks: from max(1, n(h-1)), where the
    count provably equals the formula, up to ``q_max``, within the budget."""
    bound = oracle_agreement_bound(info, n)
    lo = max(1, bound)
    if q_max < lo:
        raise ValueError(
            f"--q-max must be >= 1 and >= the oracle agreement bound "
            f"n(h-1) = {bound} for {info.label} n={n}"
        )
    qs = range(lo, q_max + 1)
    if any(total > _ORACLE_POINT_BUDGET for total in accumulate(q**info.rank for q in qs)):
        raise ValueError(
            f"oracle sweep over q = {lo}..{q_max} needs more than "
            f"{_ORACLE_POINT_BUDGET} points (sum of q^{info.rank}); lower --q-max"
        )
    return qs


def cmd_verify(args) -> int:
    info = catalog(args.type)
    n = args.n
    if args.mode in ("oracle", "both"):
        qs = _oracle_moduli(info, n, args.q_max)
    checks: dict = {}
    record: dict = {
        "command": "verify",
        "type": info.label,
        "n": n,
    }

    p = char_poly(info, n)
    f = char_quasi(info, n)
    record["coeffs"] = _desc_coeffs(p)
    record["period"] = minimal_period(f).period

    first_failure = None

    if args.mode in ("formula", "both"):
        checks["main"] = verify_main_theorem(info, n)
        checks["corollary1"] = verify_corollary1(info, n)
        g = gcd(n + 1, info.period_rho)
        if g > gcd(n + 1, info.rad_rho):  # eta = 1 would compare a polynomial with itself
            checks["rad"] = verify_rad_theorem(info, n)
        if g == 1:
            prime_poly = gcd_prime_polynomial(info, n)
            checks["gcd_prime"] = prime_poly == p and record["period"] == 1
        for name in ("main", "corollary1", "rad", "gcd_prime"):
            if first_failure is None and checks.get(name) is False:
                first_failure = {"check": name, "n": n}

    if args.mode in ("oracle", "both"):
        record["oracle_moduli"] = [qs.start, qs.stop - 1]
        results = ((q, f.eval(q), oracle_count(info, 1, n, q)) for q in qs)
        mismatches = [(q, formula, count) for q, formula, count in results if formula != count]
        checks["oracle"] = not mismatches
        if mismatches and first_failure is None:
            q, formula, count = mismatches[0]
            first_failure = {
                "check": "oracle",
                "q": q,
                "formula": str(formula),
                "count": count,
            }

    record["checks"] = checks
    if first_failure is not None:
        record["first_failure"] = first_failure
    _print_json(record)
    return 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# ehrhart
# ---------------------------------------------------------------------------


def cmd_ehrhart(args) -> int:
    info = catalog(args.type)
    if not 0 <= args.q_max <= _EHRHART_Q_MAX:
        raise ValueError(f"--q-max must be >= 0 and <= {_EHRHART_Q_MAX}")
    f = ehrhart_quasi(info)
    rows = []
    all_ok = True
    for q in range(args.q_max + 1):
        count = denumerant_count(info, q)
        value = f.eval(q)
        ok = count == value
        all_ok = all_ok and ok
        rows.append((q, count, value, ok))

    if args.format == "json":
        _print_json(
            {
                "command": "ehrhart",
                "type": info.label,
                "period": minimal_period(f).period,
                "rows": [
                    {
                        "q": q,
                        "count": count,
                        "formula": str(value),
                        "match": ok,
                    }
                    for q, count, value, ok in rows
                ],
                "all_match": all_ok,
            }
        )
    elif args.format == "csv":
        _print_csv_table(
            ["q", "count", "formula", "match"],
            [(q, count, str(value), "yes" if ok else "no") for q, count, value, ok in rows],
        )
    else:
        _print_md_table(
            ["q", "count", "formula", "match"],
            [(q, count, str(value), "yes" if ok else "no") for q, count, value, ok in rows],
        )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> int:
    info = catalog(args.type)
    parts = decompose_ehrhart(info)
    total = parts[0][1]
    for _, part in parts[1:]:
        total = total + part
    resum_ok = total == ehrhart_quasi(info)

    if args.format == "json":
        _print_json(
            {
                "command": "decompose",
                "type": info.label,
                "parts": [
                    {
                        "mark": d,
                        "period": part.period,
                        "degree": -1 if part.degree == float("-inf") else int(part.degree),
                        "constituents": quasipoly_to_json(part)["constituents"],
                    }
                    for d, part in parts
                ],
                "resum_ok": resum_ok,
            }
        )
    else:
        rows = [
            (
                d,
                part.period,
                "-inf" if part.degree == float("-inf") else int(part.degree),
            )
            for d, part in parts
        ]
        if args.format == "csv":
            _print_csv_table(["mark", "period", "degree"], rows)
        else:
            _print_md_table(["mark", "period", "degree"], rows)
        sys.stdout.write(f"resum: {'ok' if resum_ok else 'MISMATCH'}\n")
    return 0 if resum_ok else 1


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def cmd_roots(args) -> int:
    info = catalog(args.type)
    n = args.n
    p = char_poly(info, n)
    target = Fraction(n * info.coxeter_h, 2)
    report = verify_line(p, target)
    within = report.max_deviation <= args.tol
    ok = within and report.symmetry_exact and report.sturm_exact

    if args.format == "json":
        _print_json(
            {
                "command": "roots",
                "type": info.label,
                "n": n,
                "target_real_part": str(target),
                "roots": [
                    {"re": z.real, "im": z.imag} for z in report.roots
                ],
                "max_deviation": report.max_deviation,
                "tol": args.tol,
                "within_tol": within,
                "symmetry_exact": report.symmetry_exact,
                "sturm_exact": report.sturm_exact,
                "squarefree": report.squarefree,
            }
        )
    elif args.format == "csv":
        _print_csv_table(
            ["re", "im"],
            [(_fmt_float(z.real), _fmt_float(z.imag)) for z in report.roots],
        )
        sys.stdout.write(
            f"max_deviation,{_fmt_float(report.max_deviation)}\n"
            f"within_tol,{'yes' if within else 'no'}\n"
            f"symmetry_exact,{'yes' if report.symmetry_exact else 'no'}\n"
            f"sturm_exact,{'yes' if report.sturm_exact else 'no'}\n"
        )
    else:
        _print_md_table(
            ["re", "im"],
            [(_fmt_float(z.real), _fmt_float(z.imag)) for z in report.roots],
        )
        sys.stdout.write(
            f"target real part: {target}\n"
            f"max deviation: {_fmt_float(report.max_deviation)}\n"
            f"within tol {_fmt_float(args.tol)}: {'yes' if within else 'no'}\n"
            f"exact certificate: {_exact_flag(report)}\n"
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linial",
        description=(
            "Characteristic polynomials of Linial-type deformations of "
            "reflection arrangements, via shift-operator calculus."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, with_format=True):
        p.add_argument(
            "type",
            help=f"root system label, e.g. one of {', '.join(CLI_LABELS)}",
        )
        if with_format:
            p.add_argument(
                "--format",
                choices=("md", "csv", "json"),
                default="md",
                help="output format (default: md)",
            )

    p_table = sub.add_parser("table", help="characteristic polynomials for several n")
    add_common(p_table)
    p_table.add_argument(
        "--n-list",
        default="1,2,3",
        help="comma-separated n values (default: 1,2,3)",
    )
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="identity and counting checks for one n")
    p_verify.add_argument("type", help="root system label")
    p_verify.add_argument("n", type=int, help="deformation width parameter")
    p_verify.add_argument(
        "--mode",
        choices=("formula", "oracle", "both"),
        default="formula",
        help="which checks to run (default: formula)",
    )
    p_verify.add_argument(
        "--q-max",
        type=int,
        default=12,
        help="largest modulus for the oracle sweep from max(1, n(h-1)) (default: 12)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_ehr = sub.add_parser("ehrhart", help="alcove lattice counts vs. formula")
    add_common(p_ehr)
    p_ehr.add_argument(
        "--q-max",
        type=int,
        default=None,
        help=f"largest dilation factor, 0..{_EHRHART_Q_MAX} (default: 3 * period)",
    )
    p_ehr.set_defaults(func=cmd_ehrhart)

    p_dec = sub.add_parser("decompose", help="per-mark pieces of the alcove count")
    add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_roots = sub.add_parser("roots", help="roots of one characteristic polynomial")
    p_roots.add_argument("type", help="root system label")
    p_roots.add_argument("n", type=int, help="deformation width parameter")
    p_roots.add_argument(
        "--format",
        choices=("md", "csv", "json"),
        default="md",
        help="output format (default: md)",
    )
    p_roots.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="numeric tolerance for the real-part deviation (default: 1e-8)",
    )
    p_roots.set_defaults(func=cmd_roots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 0:
        print("error: n must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.cmd == "ehrhart" and args.q_max is None:
            args.q_max = 3 * catalog(args.type).period_rho
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
