"""End-to-end acceptance ladder.

Each test prints one summary line (visible with ``pytest -s`` or in the
captured output of a failing test) and then asserts the criterion.

ACCEPTANCE 3 checks the agreement regime in both directions.  The
quasi-polynomial is the *eventual* counting function of the modular
complement: the finite-field method proves formula = count for every
q >= n(h-1) (and for every q when n = 0).  Below that threshold the two
differ on every point of the fixed grid, as the ``arrangements`` module
documents; that direction is observed on the grid, not proven.  The grid is
the original one, unchanged (484 points, moduli from q = 1 upwards): every
point inside the regime must agree, every point below it must differ, and
violations of each kind are reported separately as
(type, n, q, formula, count).  See test_arrangements.py for hand-checked
witnesses below the threshold and a wider sweep inside it.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from conftest import ALL_TYPES
from golden_tables import GOLDEN

from linial.arrangements import (
    char_poly,
    char_quasi,
    gcd_prime_polynomial,
    oracle_agreement_bound,
    oracle_count,
    verify_corollary1,
    verify_main_theorem,
    verify_rad_theorem,
)
from linial.cli import main as cli_main
from linial.ehrhart import decompose_ehrhart, denumerant_count, ehrhart_quasi
from linial.eulerian import eulerian, generalized_eulerian
from linial.quasipoly import OperatorPoly, QuasiPoly, apply_S, tilde
from linial.ratpoly import RatPoly
from linial.rootline import verify_line
from linial.rootsystems import catalog
from reference_algebra import (
    EXCEPTIONAL_RELATIONS,
    congruent_mod_power,
    cross_type_relation_check,
    cyclotomic_type,
    divides,
    generalized_congruence_operator,
    generalized_eulerian_by_weyl,
    has_gcd_property,
    moment_divisibility,
)

TABLE_ARGS = {
    "E6": "1,2,5",
    "F4": "1,2,5",
    "E7": "1,2,5",
    "E8": "1,2,4,5,9,14,29",
}

REAL_PART_COLUMNS = {
    "E6": [6, 12, 30],
    "F4": [6, 12, 30],
    "E7": [9, 18, 45],
    "E8": [15, 30, 60, 75, 135, 210, 435],
}


def _report(num, name, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_table_reproduction(capsys):
    started = time.monotonic()
    mismatches = []
    for label, n_list in TABLE_ARGS.items():
        code = cli_main(["table", label, "--n-list", n_list, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        for row, (n, ascending) in zip(doc["rows"], GOLDEN[label]):
            assert row["n"] == n
            want = [str(c) for c in reversed(ascending)]
            if row["coeffs"] != want:
                mismatches.append((label, n))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 120.0
    _report(1, "table reproduction", ok, f"{elapsed:.1f}s for 16 rows")
    assert not mismatches, mismatches
    assert elapsed < 120.0


def test_criterion_2_real_parts():
    worst = 0.0
    bad = []
    for label, columns in REAL_PART_COLUMNS.items():
        info = catalog(label)
        for (n, _), column in zip(GOLDEN[label], columns):
            assert Fraction(n * info.coxeter_h, 2) == column
            rep = verify_line(char_poly(info, n), Fraction(column))
            worst = max(worst, rep.max_deviation)
            if not (
                rep.max_deviation < 1e-8
                and rep.symmetry_exact
                and rep.sturm_exact
                and rep.squarefree
            ):
                bad.append((label, n))
    ok = not bad
    _report(2, "real parts on the line", ok, f"max deviation {worst:.2e}")
    assert ok, bad


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    grid = [
        (label, n, q)
        for label in ("A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4")
        for n in (0, 1, 2, 3, 5)
        for q in range(1, 13)
    ] + [("E6", n, q) for n in (1, 2) for q in (5, 7)]
    agree = differ = 0
    unequal_inside = []  # q >= n(h-1) but formula != count
    equal_below = []  # q < n(h-1) but formula == count
    covered = set()  # types with an n >= 1 point inside the regime
    for label, n, q in grid:
        info = catalog(label)
        formula = char_quasi(info, n).eval(q)
        count = oracle_count(info, 1, n, q)
        row = (label, n, q, int(formula), count)
        if q >= oracle_agreement_bound(info, n):
            if n >= 1:
                covered.add(label)
            if formula == count:
                agree += 1
            else:
                unequal_inside.append(row)
        elif formula != count:
            differ += 1
        else:
            equal_below.append(row)
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    uncovered = sorted({label for label, _, _ in grid if label != "E6"} - covered)
    ok = not unequal_inside and not equal_below and not uncovered
    _report(
        3,
        "oracle agreement regime on the full grid",
        ok,
        f"{agree} of {len(grid)} points agree at q >= n(h-1), {differ} differ "
        f"below it; {len(unequal_inside)} unequal inside, {len(equal_below)} "
        f"equal below ({elapsed:.1f}s)",
    )
    for kind, rows in (("unequal inside", unequal_inside), ("equal below", equal_below)):
        if rows:
            print(f"  first {kind} (type, n, q, formula, count):")
            for row in rows[:12]:
                print(f"    {row}")
    assert not unequal_inside and not equal_below, (
        f"{len(unequal_inside)} points unequal at q >= n(h-1), first: "
        f"{unequal_inside[:3]}; {len(equal_below)} points equal at "
        f"q < n(h-1), first: {equal_below[:3]}"
    )
    assert not uncovered, f"no n >= 1 grid point inside the regime for {uncovered}"


def test_criterion_4_ehrhart_equivalence():
    bad = []
    for label in ALL_TYPES:
        info = catalog(label)
        L = ehrhart_quasi(info)
        top = 3 * info.period_rho * (info.rank + 1)
        for q in range(0, top + 1):
            if L.eval(q) != denumerant_count(info, q):
                bad.append((label, q))
                break
    _report(4, "alcove count equivalence", not bad, f"{len(ALL_TYPES)} families")
    assert not bad, bad


def test_criterion_5_identity_suite():
    failures = []

    # classical ascent rows recover the monomial
    for ell in range(1, 9):
        L = ehrhart_quasi(catalog(f"A{ell}"))
        got = apply_S(L, OperatorPoly(eulerian(ell), 1))
        if got != QuasiPoly.from_poly(RatPoly.monomial(ell)):
            failures.append(("worpitzky", ell))

    for label in ALL_TYPES:
        info = catalog(label)
        L = ehrhart_quasi(info)
        h, rho, sign = info.coxeter_h, info.period_rho, (-1) ** info.rank

        # weighted version: R(S) L = t^ell
        got = apply_S(L, OperatorPoly(generalized_eulerian(info), 1))
        if got != QuasiPoly.from_poly(RatPoly.monomial(info.rank)):
            failures.append(("generalized worpitzky", label))

        if any(L.eval(-q) != sign * L.eval(q - h) for q in range(-3 * rho, 3 * rho + 1)):
            failures.append(("duality", label))
        if any(L.eval(-q) != 0 for q in range(1, h)):
            failures.append(("vanishing", label))
        if not has_gcd_property(L):
            failures.append(("gcd-property", label))

        # clearing all the marks lowers to the all-ones family
        operator = [(cyclotomic_type(c), 1) for c in info.marks]
        if not cross_type_relation_check(info, operator, catalog(f"A{info.rank}")):
            failures.append(("mark clearing", label))

        parts = decompose_ehrhart(info)
        total = parts[0][1]
        for _, part in parts[1:]:
            total = total + part
        if total != L:
            failures.append(("decomposition", label))

    # the six fixed rank-lowering relations
    S1 = RatPoly((1, -1))
    fixed = [("C4", [(S1, 2)], "C3", None), ("D5", [(S1, 2)], "D4", None)]
    for lhs, op, rhs, rop in fixed + EXCEPTIONAL_RELATIONS:
        if not cross_type_relation_check(catalog(lhs), op, catalog(rhs), rop):
            failures.append(("cross-type", lhs, rhs))

    # the classical Eulerian congruence is the case A_l of the generalized one
    for ell in range(1, 8):
        for n in range(2, 11):
            lhs, rhs = generalized_congruence_operator(catalog(f"A{ell}"), n)
            if not congruent_mod_power(lhs, rhs, ell + 1):
                failures.append(("congruence", ell, n))

    for label in ALL_TYPES:
        info = catalog(label)
        for n in range(2, 7):
            lhs, rhs = generalized_congruence_operator(info, n)
            if not congruent_mod_power(lhs, rhs, info.rank + 1):
                failures.append(("generalized congruence", label, n))

    _report(5, "identity suite", not failures, f"{len(ALL_TYPES)} families")
    assert not failures, failures


def test_criterion_6_main_theorem_suite():
    started = time.monotonic()
    failures = []
    prime_cases = 0
    for label in ALL_TYPES:
        info = catalog(label)
        rho, h = info.period_rho, info.coxeter_h
        for n in range(0, 2 * rho + 1):
            if not verify_main_theorem(info, n):
                failures.append(("main", label, n))
            if not verify_corollary1(info, n):
                failures.append(("corollary1", label, n))
            if not verify_rad_theorem(info, n):
                failures.append(("rad", label, n))
            if gcd(n + 1, rho) == 1:
                prime_cases += 1
                f = char_quasi(info, n)
                if f.period != 1:
                    failures.append(("period", label, n))
                p = gcd_prime_polynomial(info, n)
                if p != char_poly(info, n):
                    failures.append(("closed form", label, n))
                rep = verify_line(p, Fraction(n * h, 2))
                if not (rep.max_deviation < 1e-8 and rep.symmetry_exact and rep.sturm_exact):
                    failures.append(("line", label, n))
    elapsed = time.monotonic() - started
    _report(
        6,
        "main-theorem suite",
        not failures,
        f"{prime_cases} coprime cases, {elapsed:.1f}s",
    )
    assert not failures, failures[:10]


def test_criterion_7_weyl_cross_check():
    labels = [f"A{r}" for r in range(1, 7)]
    labels += ["B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"]
    bad = [
        label
        for label in labels
        if generalized_eulerian_by_weyl(catalog(label)) != generalized_eulerian(catalog(label))
    ]
    _report(7, "group-statistic cross-check", not bad, f"{len(labels)} groups")
    assert not bad, bad


def _random_quasipoly(rng, max_period=6, max_deg=4):
    n = rng.randint(1, max_period)
    return QuasiPoly(
        n,
        tuple(
            RatPoly(
                tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, max_deg + 1)))
            )
            for _ in range(n)
        ),
    )


def _radical(n):
    rad, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            rad *= d
            while m % d == 0:
                m //= d
        d += 1
    return rad * (m if m > 1 else 1)


def test_criterion_8_property_families():
    checked = {}

    rng = random.Random(8001)
    for _ in range(220):
        f = _random_quasipoly(rng)
        n = f.period
        k = rng.randint(1, 3 * n + 2)
        assert tilde(f, k) == tilde(f, gcd(k, n))
        assert tilde(f, k) == tilde(f, k + n)
    checked["tilde-gcd"] = 220

    rng = random.Random(8002)
    for _ in range(220):
        f = _random_quasipoly(rng, max_period=5, max_deg=3)
        n = f.period
        ell = int(f.degree) if f.degree != float("-inf") else 0
        m = rng.randint(1, 6)
        c = (n // gcd(m, n)) * rng.randint(1, 3)
        g = RatPoly(tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
        block = cyclotomic_type(c) ** (ell + 1) * g
        lhs = apply_S(f, OperatorPoly(block, m))
        # Sbar^m = S^m on tilde(f, gcd(m, n)), whose period divides m
        rhs = apply_S(tilde(f, gcd(m, n)), OperatorPoly(block, m))
        for t in range(0, 4 * n + 1):
            assert lhs.eval(t) == rhs.eval(t)
    checked["averaging"] = 220

    rng = random.Random(8003)
    for _ in range(220):
        f = _random_quasipoly(rng, max_period=4)
        g = _random_quasipoly(rng, max_period=4)
        k = rng.randint(1, 8)
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        assert tilde(f.scale(a) + g.scale(b), k) == tilde(f, k).scale(a) + tilde(g, k).scale(b)
    checked["linearity"] = 220

    rng = random.Random(8004)
    for _ in range(220):
        n = rng.randint(1, 12)
        ell = rng.randint(0, 8)
        base = RatPoly(
            tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 20)))
        )
        if rng.random() < 0.5:
            g = base * cyclotomic_type(n) ** (ell + 1)
        else:
            g = base
        want, _ = divides(cyclotomic_type(n) ** (ell + 1), g)
        assert moment_divisibility(g, n, ell) == want
    checked["moment-divisibility"] = 220

    rng = random.Random(8005)
    for _ in range(240):
        n = rng.randint(1, 200)
        d = rng.randint(1, 200)
        m = rng.randint(0, n)
        assert gcd(d + m * _radical(n) * gcd(d, n), n) == gcd(d, n)
    checked["shift-arithmetic"] = 240

    ok = all(v >= 200 for v in checked.values())
    _report(8, "randomized property families", ok, str(checked))
    assert ok
