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
floats at 17 significant digits.  Every subcommand builds one record and,
for Markdown and CSV, one table; ``_emit`` writes either.  JSON goes through
the stdlib encoder, with each float pre-formatted at 17 digits so that it
does not print by repr().  On the tabular subcommands ``--format`` selects
Markdown (default), CSV, or JSON; ``verify`` always emits a single JSON
record.  The exit status is 0 exactly when every requested check
passed (``table`` returns 0 whenever the computation itself succeeded).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction
from itertools import accumulate

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
# output
# ---------------------------------------------------------------------------


def _text(value) -> str:
    """A scalar as the CLI prints it: floats at 17 significant digits,
    flags as yes / no."""
    if isinstance(value, float):
        return format(value, ".17g")
    return ("yes" if value else "no") if isinstance(value, bool) else str(value)


def _marked(obj):
    """``obj`` with every float replaced by its %.17g text behind a NUL mark,
    which ``_emit`` unquotes after ``json.dumps``; no other string of a
    record can hold a NUL."""
    if isinstance(obj, float):
        return "\0" + _text(obj)
    if isinstance(obj, dict):
        return {k: _marked(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_marked(v) for v in obj]
    return obj


def _emit(fmt: str, record: dict, headers=(), rows=(), tail=()) -> None:
    """Write ``record`` as JSON, or the table ``headers``/``rows`` as
    Markdown or CSV followed by the ``tail`` lines.

    JSON is the stdlib encoder's, 2-space indented, with dict keys in the
    insertion order the command builders fix; floats print at 17
    significant digits rather than by repr(), to keep the bytes stable."""
    out = sys.stdout
    if fmt == "json":
        text = json.dumps(_marked(record), indent=2)
        out.write(re.sub(r'"\\u0000([^"]*)"', r"\1", text) + "\n")
        return
    cells = [[_text(c) for c in row] for row in rows]
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows([headers, *cells])
    else:
        out.write("| " + " | ".join(headers) + " |\n")
        out.write("|" + "|".join(" --- " for _ in headers) + "|\n")
        out.writelines("| " + " | ".join(row) + " |\n" for row in cells)
    out.writelines(line + "\n" for line in tail)


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


def _line_check(info, n: int):
    """char_poly(info, n), its target real part nh/2, the root-line report,
    and whether the report's certificate is exact."""
    p = char_poly(info, n)
    target = Fraction(n * info.coxeter_h, 2)
    report = verify_line(p, target)
    return p, target, report, report.symmetry_exact and report.sturm_exact


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    info = catalog(args.type)
    checks = [(n, *_line_check(info, n)) for n in _parse_n_list(args.n_list)]
    record = {
        "command": "table",
        "type": info.label,
        "rows": [
            {
                "n": n,
                "coeffs": _desc_coeffs(p),
                "real_part": str(target),
                "max_deviation": report.max_deviation,
                "exact": _text(exact),
            }
            for n, p, target, report, exact in checks
        ],
    }
    if args.format == "md":
        headers = ["n", "characteristic polynomial", "real part", "exact"]
        rows = [(n, render_poly(p), target, exact) for n, p, target, _, exact in checks]
    else:
        headers = ["n", "coeffs", "real_part", "max_deviation", "exact"]
        rows = [
            (r["n"], " ".join(r["coeffs"]), r["real_part"], r["max_deviation"], r["exact"])
            for r in record["rows"]
        ]
    _emit(args.format, record, headers, rows)
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
        g = math.gcd(n + 1, info.period_rho)
        if g > math.gcd(n + 1, info.rad_rho):  # eta = 1 would compare a polynomial with itself
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
    _emit("json", record)
    return 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# ehrhart
# ---------------------------------------------------------------------------


def cmd_ehrhart(args) -> int:
    info = catalog(args.type)
    q_max = 3 * info.period_rho if args.q_max is None else args.q_max
    if not 0 <= q_max <= _EHRHART_Q_MAX:
        raise ValueError(f"--q-max must be >= 0 and <= {_EHRHART_Q_MAX}")
    f = ehrhart_quasi(info)
    rows = []
    for q in range(q_max + 1):
        count, value = denumerant_count(info, q), f.eval(q)
        rows.append({"q": q, "count": count, "formula": str(value), "match": count == value})
    all_ok = all(r["match"] for r in rows)
    record = {
        "command": "ehrhart",
        "type": info.label,
        "period": minimal_period(f).period,
        "rows": rows,
        "all_match": all_ok,
    }
    _emit(args.format, record, ["q", "count", "formula", "match"], [r.values() for r in rows])
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
    record = {
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
    rows = [
        (r["mark"], r["period"], "-inf" if r["degree"] < 0 else r["degree"])
        for r in record["parts"]
    ]
    tail = [f"resum: {'ok' if resum_ok else 'MISMATCH'}"]
    _emit(args.format, record, ["mark", "period", "degree"], rows, tail)
    return 0 if resum_ok else 1


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def cmd_roots(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, not {args.tol}")
    info = catalog(args.type)
    n = args.n
    _, target, report, exact = _line_check(info, n)
    deviation = report.max_deviation
    within = deviation <= args.tol
    record = {
        "command": "roots",
        "type": info.label,
        "n": n,
        "target_real_part": str(target),
        "roots": [{"re": z.real, "im": z.imag} for z in report.roots],
        "max_deviation": deviation,
        "tol": args.tol,
        "within_tol": within,
        "symmetry_exact": report.symmetry_exact,
        "sturm_exact": report.sturm_exact,
        "squarefree": report.squarefree,
    }
    tails = {
        "md": [
            f"target real part: {target}",
            f"max deviation: {_text(deviation)}",
            f"within tol {_text(args.tol)}: {_text(within)}",
            f"exact certificate: {_text(exact)}",
        ],
        "csv": [
            f"{key},{_text(record[key])}"
            for key in ("max_deviation", "within_tol", "symmetry_exact", "sturm_exact")
        ],
    }
    rows = [(z.real, z.imag) for z in report.roots]
    _emit(args.format, record, ["re", "im"], rows, tails.get(args.format, ()))
    return 0 if within and exact else 1


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

    def add(name, func, help, *, with_n=False, tabular=True):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "type",
            help=f"root system label, e.g. one of {', '.join(CLI_LABELS)}",
        )
        if with_n:
            p.add_argument("n", type=int, help="deformation width parameter")
        if tabular:
            p.add_argument(
                "--format",
                choices=("md", "csv", "json"),
                default="md",
                help="output format (default: md)",
            )
        p.set_defaults(func=func)
        return p

    p_table = add("table", cmd_table, "characteristic polynomials for several n")
    p_table.add_argument(
        "--n-list",
        default="1,2,3",
        help="comma-separated n values (default: 1,2,3)",
    )

    p_verify = add(
        "verify", cmd_verify, "identity and counting checks for one n", with_n=True, tabular=False
    )
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

    p_ehr = add("ehrhart", cmd_ehrhart, "alcove lattice counts vs. formula")
    p_ehr.add_argument(
        "--q-max",
        type=int,
        default=None,
        help=f"largest dilation factor, 0..{_EHRHART_Q_MAX} (default: 3 * period)",
    )

    add("decompose", cmd_decompose, "per-mark pieces of the alcove count")

    p_roots = add("roots", cmd_roots, "roots of one characteristic polynomial", with_n=True)
    p_roots.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="numeric tolerance for the real-part deviation, finite and >= 0 (default: 1e-8)",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 0:
        print("error: n must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
