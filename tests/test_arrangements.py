"""Characteristic quasi-polynomials of the offset-window deformations and the
finite-field counting oracle."""

import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from conftest import ALL_TYPES, SMALL_TYPES
from golden_tables import GOLDEN
from linial import arrangements, quasipoly
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
from linial.ehrhart import PeriodConsistencyError, decompose_ehrhart, ehrhart_quasi
from linial.eulerian import generalized_eulerian
from linial.quasipoly import OperatorPoly, QuasiPoly, apply_S, sorted_divisors, tilde
from linial.ratpoly import RatPoly, render_poly
from linial.rootsystems import catalog, positive_roots
import reference_algebra
from reference_algebra import (
    cyclotomic_type,
    power_sum_block_product,
    reference_char_poly,
    series_char_quasi,
    verify_shift_relation,
)

_CHUNK = 1 << 18


def brute_oracle_count(info, a, b, q):
    """Reference for ``oracle_count``: every point of (Z/q)^l, in chunks of
    2^18, dotted with every positive root."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if b < a - 1:
        raise ValueError("b must be >= a - 1")
    ell = info.rank
    if b == a - 1:
        return q**ell
    import numpy as np

    forbidden = np.array(sorted({k % q for k in range(a, b + 1)}), dtype=np.int64)
    roots = np.array(positive_roots(info), dtype=np.int64)
    total = q**ell
    alive = 0
    # enumerate points in chunks to bound memory at large q^l
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        pts = np.empty((ell, idx.size), dtype=np.int64)
        rest = idx
        for j in range(ell - 1, -1, -1):
            pts[j] = rest % q
            rest = rest // q
        dots = (roots @ pts) % q
        bad = np.isin(dots, forbidden).any(axis=0)
        alive += int(idx.size - bad.sum())
    return alive


def test_A1_closed_form():
    info = catalog("A1")
    for n in range(0, 8):
        assert char_poly(info, n) == RatPoly((-n, 1))


def test_A2_small_n():
    info = catalog("A2")
    assert render_poly(char_poly(info, 1)) == "t^2 - 3t + 3"
    assert render_poly(char_poly(info, 2)) == "t^2 - 6t + 11"
    assert render_poly(char_poly(info, 3)) == "t^2 - 9t + 24"


def test_n_zero_gives_monomial():
    for label in SMALL_TYPES:
        info = catalog(label)
        assert char_poly(info, 0) == RatPoly.monomial(info.rank)


def _same_form(f, g):
    return (f.period, f.den, f.rows) == (g.period, g.den, g.rows)


def test_char_quasi_series_matches_operator_application():
    # the piecewise path against R_Phi(S^(n+1)) applied to all of L_Phi at
    # once and against the generating series R_Phi(x^(n+1)) / prod (1 - x^c),
    # in canonical (period, den, rows) form: n = 0..2 rho + 1, and
    # N = n + 1 = s + 10^5 rho in every class s mod rho of the families
    for label in ALL_TYPES:
        info = catalog(label)
        rho = info.period_rho
        L, a = ehrhart_quasi(info), generalized_eulerian(info)
        for n in [*range(2 * rho + 2), *(s + 10**5 * rho - 1 for s in range(rho))]:
            got = char_quasi(info, n)
            assert _same_form(got, apply_S(L, OperatorPoly(a, n + 1))), (label, n)
            assert _same_form(got, series_char_quasi(info, n)), (label, n)
    # far out, the reference reduces its numerator mod (1 - x^rho)^(l+1):
    # unreduced, n = 10^7 would expand ~3 * 10^8 series terms
    info = catalog("E8")
    L, a = ehrhart_quasi(info), generalized_eulerian(info)
    for n in (10**3, 10**5, 10**7):
        got = char_quasi(info, n)
        assert _same_form(got, apply_S(L, OperatorPoly(a, n + 1))), n
        assert _same_form(got, series_char_quasi(info, n)), n


@pytest.mark.parametrize("label", ALL_TYPES)
def test_piece_images_vanish_exactly_off_the_divisors(label):
    # R_Phi(S^(n+1)) annihilates the piece of L of order d iff d does not
    # divide n + 1; char_quasi relies on the sum, not on skipping pieces
    info = catalog(label)
    a = generalized_eulerian(info)
    for n in [*range(2 * info.period_rho + 2), 10**5]:
        op = OperatorPoly(a, n + 1)
        for d, piece in decompose_ehrhart(info):
            vanishes = apply_S(piece, op) == QuasiPoly.zero()
            assert vanishes == ((n + 1) % d != 0), (label, n, d)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_piece_families_vanish_exactly_off_the_divisors(label):
    # the family of the piece of order d for the class s of N mod d has all
    # its rows zero iff d does not divide s: the kernel itself finds the
    # piece annihilated for every N of the class, nothing filters on d
    info = catalog(label)
    for d, piece in decompose_ehrhart(info):
        assert piece.period == d, (label, d)
        for s in range(d):
            _, _, rows = arrangements._family(piece, info, s)
            zero = not any(v for row in rows for c in row for v in c)
            assert zero == (s % d != 0), (label, d, s)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_char_quasi_runs_no_kernel_in_a_seen_class(monkeypatch, label):
    # once every class of N mod rho has been seen, a new n costs evaluations
    # of cached families only: no moment table and no kernel pass
    info = catalog(label)
    rho = info.period_rho
    for n in range(rho):
        char_quasi.__wrapped__(info, n)

    def refuse(*args, **kwargs):
        raise AssertionError("char_quasi ran the kernel in a class it has seen")

    for name in ("_moment_table", "_operator_rows"):
        monkeypatch.setattr(quasipoly, name, refuse)
    for n in (rho, 2 * rho + 1, 10**9 + 7):
        assert _same_form(char_quasi.__wrapped__(info, n), series_char_quasi(info, n)), (label, n)


def test_char_quasi_rejects_negative_n():
    with pytest.raises(ValueError):
        char_quasi(catalog("A2"), -1)


def test_constituents_are_monic_of_full_degree():
    for label in ("B2", "G2", "F4"):
        info = catalog(label)
        for n in (1, 2, 3):
            f = char_quasi(info, n)
            for c in f.constituents:
                assert c.degree == info.rank
                assert c.leading == 1


def test_oracle_small_cases():
    info = catalog("A1")
    # single forbidden residue class mod 3
    assert oracle_count(info, 1, 1, 3) == 2
    # empty window counts everything
    assert oracle_count(info, 1, 0, 5) == 5
    assert oracle_count(catalog("A2"), 1, 0, 7) == 49
    # the pinned A2 value
    assert oracle_count(catalog("A2"), 1, 1, 5) == 13


def test_oracle_validation():
    with pytest.raises(ValueError):
        oracle_count(catalog("A2"), 1, 1, 0)
    with pytest.raises(ValueError):
        oracle_count(catalog("A2"), 3, 1, 5)


def test_oracle_point_budget():
    # 29^8 ~ 5e11 points: refused before any counting, empty window or not
    for b in (1, 0):
        with pytest.raises(ValueError, match="budget"):
            oracle_count(catalog("E8"), 1, b, 29)
    with pytest.raises(ValueError, match="budget"):
        oracle_count(catalog("A1"), 1, 1, 10**9 + 1)


# every type of rank <= 5, with the largest modulus of the seeded draws
ORACLE_REFERENCE_TYPES = {
    "A1": 60, "A2": 24, "A3": 13, "A4": 9, "A5": 7, "B2": 24, "B3": 13,
    "B4": 9, "B5": 7, "C2": 24, "C3": 13, "C4": 9, "C5": 7, "D4": 9,
    "D5": 7, "F4": 9, "G2": 24,
}


@pytest.mark.parametrize("label", sorted(ORACLE_REFERENCE_TYPES))
def test_oracle_matches_brute_reference(label):
    # general windows [a, b]: a <= 0, empty (b = a - 1), at least q long,
    # q in {1, 2}, seeded draws, and one modulus with q^l ~ 2e5, whose
    # prefixes fill several blocks for most types; 11 cases per type.  At
    # rank <= 3, q in {63, ..., 129} puts the 64-bit rows of a coordinate
    # on and across word boundaries: [1, 1] at even q, wrapping past 0 at odd q
    info = catalog(label)
    rng = random.Random(label)
    q_max = ORACLE_REFERENCE_TYPES[label]
    q_big = int(2e5 ** (1 / info.rank))
    cases = [(1, 1, 1), (0, 2, 2), (3, 2, 5), (-4, q_max, q_max), (1, 1, q_big)]
    for _ in range(6):
        q = rng.randint(1, q_max)
        a = rng.randint(-2 * q, 3)
        cases.append((a, a - 1 + rng.choice([rng.randint(0, 4), rng.randint(q, 2 * q)]), q))
    for q in (63, 64, 65, 128, 129):
        if q**info.rank <= 3 * 10**6:
            cases.append((q - 5, q + 7, q) if q % 2 else (1, 1, q))
    for a, b, q in cases:
        assert oracle_count(info, a, b, q) == brute_oracle_count(info, a, b, q), (a, b, q)


def test_oracle_matches_brute_reference_across_chunks():
    # windows across 2^16 and past q at q > 2^16, which only rank 1 reaches
    # within the point budget; rank 1 counts F itself, with no rows or chunks
    info = catalog("A1")
    q = (1 << 17) + 3
    for a, b in ((1, 1), (-5, 70000), ((1 << 16) - 2, (1 << 16) + 2), (q - 3, q + 3), (9, 8)):
        assert oracle_count(info, a, b, q) == brute_oracle_count(info, a, b, q), (a, b)


def _peak_rss_kib(code):
    """Run ``code`` in a fresh interpreter and return its peak resident set
    in KiB, read as VmHWM, the high-water mark of its own address space.
    Its ru_maxrss would not do: across the spawn it keeps the test
    process's own resident set, ~170 MB late in the suite."""
    script = code + (
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_oracle_memory_is_bounded():
    # E6 at q = 13 is 13^6 ~ 4.8e6 points; the whole process stays under 200 MB
    assert _peak_rss_kib(
        "from linial.arrangements import char_quasi, oracle_count\n"
        "from linial.rootsystems import catalog\n"
        "info = catalog('E6')\n"
        "assert oracle_count(info, 1, 1, 13) == char_quasi(info, 1).eval(13)\n"
    ) < 200 * 1024


def test_oracle_rank_one_memory_is_bounded():
    # A1 at q = 5e7: a table of q words or an index array of q points would
    # each take 400 MB; the whole process stays under 150 MB
    assert _peak_rss_kib(
        "from linial.arrangements import oracle_count\n"
        "from linial.rootsystems import catalog\n"
        "assert oracle_count(catalog('A1'), 1, 1, 5 * 10**7) == 5 * 10**7 - 1\n"
    ) < 150 * 1024


def test_oracle_at_the_top_of_the_uint16_range():
    # G2 at q = 31,622, the largest rank-2 modulus within the point budget,
    # where the sums u + (c x mod q) < 2q come nearest 2^16; the window
    # [1, q - 3] leaves the residues 0, q - 2 and q - 1, so a point counts
    # only if x_0 is one of them, and x_1 runs over all of Z/q
    info, q = catalog("G2"), 31622
    alive = {0, q - 2, q - 1}
    expected = sum(
        all((r0 * x0 + r1 * x1) % q in alive for r0, r1 in positive_roots(info))
        for x0 in sorted(alive)
        for x1 in range(q)
    )
    assert oracle_count(info, 1, q - 3, q) == expected


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_oracle_matches_formula_in_agreement_regime(label):
    info = catalog(label)
    for n in (0, 1, 2):
        f = char_quasi(info, n)
        start = max(1, oracle_agreement_bound(info, n))
        for q in range(start, start + 4):
            assert f.eval(q) == oracle_count(info, 1, n, q), (label, n, q)


def test_formula_diverges_from_count_below_bound():
    # q below n(h-1) genuinely disagrees; three hand-checked witnesses
    info = catalog("A2")
    assert char_quasi(info, 1).eval(1) == 1 and oracle_count(info, 1, 1, 1) == 0
    assert char_quasi(info, 2).eval(3) == 2 and oracle_count(info, 1, 2, 3) == 1
    assert char_quasi(info, 3).eval(4) == 4 and oracle_count(info, 1, 3, 4) == 1


def test_agreement_bound_values():
    assert oracle_agreement_bound(catalog("A2"), 3) == 6
    assert oracle_agreement_bound(catalog("E6"), 1) == 11
    assert oracle_agreement_bound(catalog("B2"), 0) == 0


@pytest.mark.parametrize("label", SMALL_TYPES)
@pytest.mark.parametrize("n", range(0, 5))
def test_main_theorem(label, n):
    assert verify_main_theorem(catalog(label), n)


# (type, n) with g = gcd(n + 1, rho) = 2, 2 and 6
WRONG_AVERAGE_CASES = [("B2", 1), ("E8", 1), ("G2", 5)]


def test_main_theorem_fails_on_a_wrong_average(monkeypatch):
    # tilde(L, 1) in place of tilde(L, g) must be refused where g > 1
    real = arrangements.tilde
    with monkeypatch.context() as patch:
        patch.setattr(arrangements, "tilde", lambda f, k: real(f, 1))
        for label, n in WRONG_AVERAGE_CASES:
            assert not verify_main_theorem(catalog(label), n), (label, n)
    for label, n in WRONG_AVERAGE_CASES:
        assert verify_main_theorem(catalog(label), n), (label, n)


# (type, n) with a piece order d that does not divide n + 1
EXTRA_PIECE_CASES = [("B2", 2), ("E8", 2), ("G2", 1), ("F4", 2)]


def test_main_theorem_fails_on_an_extra_piece(monkeypatch):
    # an extra piece of an order d not dividing n + 1 that R_Phi(S^(n+1))
    # does not annihilate, the indicator of slot 0 mod d, must be refused:
    # char_quasi applies the operator to every piece, so none escapes the check
    real = arrangements.decompose_ehrhart
    for label, n in EXTRA_PIECE_CASES:
        info = catalog(label)
        d = next(d for d, _ in real(info) if (n + 1) % d)
        indicator = QuasiPoly(d, [RatPoly.one()] + [RatPoly.zero()] * (d - 1))
        with monkeypatch.context() as patch:
            patch.setattr(arrangements, "decompose_ehrhart", lambda i: real(i) + ((d, indicator),))
            char_quasi.cache_clear()
            assert not verify_main_theorem(info, n), (label, n)
        char_quasi.cache_clear()
        assert verify_main_theorem(info, n), (label, n)


def test_char_quasi_reads_the_cached_decomposition(monkeypatch):
    # decompose_ehrhart is cached per type and returns one shared tuple of
    # immutable pieces; char_quasi reads that same object
    info = catalog("F4")
    parts = decompose_ehrhart(info)
    assert isinstance(parts, tuple) and decompose_ehrhart(info) is parts
    seen = []
    real = arrangements.decompose_ehrhart

    def spy(i):
        seen.append(real(i))
        return seen[-1]

    monkeypatch.setattr(arrangements, "decompose_ehrhart", spy)
    char_quasi.__wrapped__(info, 5)
    assert len(seen) == 1 and seen[0] is parts


@pytest.mark.parametrize("label", SMALL_TYPES)
@pytest.mark.parametrize("n", range(0, 5))
def test_corollary_and_radical_route(label, n):
    info = catalog(label)
    assert verify_corollary1(info, n)
    assert verify_rad_theorem(info, n)


def test_period_divides_gcd():
    for label in ("B2", "G2", "F4", "E6"):
        info = catalog(label)
        for n in range(0, 2 * info.period_rho + 1):
            f = char_quasi(info, n)
            g = gcd(n + 1, info.period_rho)
            assert g % f.period == 0, (label, n)


def reference_block_product(start, block, strides):
    """Reference for ``_apply_block_product``: one ``apply_S`` per factor
    (1/block) [block]_{S^s}."""
    acc = start
    if block == 1:
        return acc
    coeffs = cyclotomic_type(block).scale(Fraction(1, block))
    for s in strides:
        acc = apply_S(acc, OperatorPoly(coeffs, stride=s))
    return acc


@pytest.mark.parametrize("label", ALL_TYPES)
def test_block_product_matches_reference_alcove(label):
    # one moment pass against the factor-by-factor chain, on L_Phi (period
    # rho), on zero and on the averages tilde(L_Phi, g): strides prime to
    # rho, mixed, and multiples of rho.  A start whose period does not divide
    # every stride is refused; at m = 10^6 + 1 the reference takes power sums
    info = catalog(label)
    rho = info.period_rho
    L = ehrhart_quasi(info)
    stride_sets = ([1, 2, 3], [5, 7, rho], [c * rho for c in info.marks])
    cases = [(f, m, s) for f in (L, QuasiPoly.zero()) for m in (1, 2, 3, 5) for s in stride_sets]
    big = (1, 2, 3, 5, 10**6 + 1)
    cases += [(tilde(L, 1), m, s) for m in big for s in stride_sets]
    cases += [
        (tilde(L, g), m, [c * g for c in info.marks]) for g in sorted_divisors(rho) for m in big
    ]
    for f, m, strides in cases:
        if any(s % f.period for s in strides):
            with pytest.raises(ValueError, match="does not divide"):
                arrangements._apply_block_product(f, m, strides)
            continue
        got = arrangements._apply_block_product(f, m, strides)
        reference = reference_block_product if m < 10**6 else power_sum_block_product
        assert got == reference(f, m, strides), (f.period, m, strides)


def test_power_sum_reference_matches_the_chain():
    # the large-block reference agrees with the factor-by-factor chain
    for label in ("A3", "B4", "G2", "F4", "E6"):
        info = catalog(label)
        L = ehrhart_quasi(info)
        for g in sorted_divisors(info.period_rho):
            for m in (1, 2, 3, 7):
                args = (tilde(L, g), m, [c * g for c in info.marks])
                assert power_sum_block_product(*args) == reference_block_product(*args)


def test_block_products_of_the_identities_are_bit_identical(monkeypatch):
    # every block product the three identity checks make for n = 0..rho keeps
    # the (period, den, rows) of the factor-by-factor chain
    calls = []
    real = arrangements._apply_block_product

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arrangements, "_apply_block_product", record)
    for label in ALL_TYPES:
        info = catalog(label)
        for n in range(info.period_rho + 1):
            assert verify_corollary1(info, n) and verify_rad_theorem(info, n), (label, n)
            if gcd(n + 1, info.period_rho) == 1:
                gcd_prime_polynomial(info, n)
    assert len(calls) == 435
    for args in calls:
        assert _same_form(real(*args), reference_block_product(*args)), args[1:]


def test_block_products_at_large_n():
    # the power sums take O(l^2) per class at any block size: E8 at
    # n + 1 = 10^7 + 1 (coprime to rho = 60) and n + 1 = 10^7 + 2 (g = 6,
    # m-hat = 1666667), against the generating-series path
    info = catalog("E8")
    assert gcd_prime_polynomial(info, 10**7) == char_poly(info, 10**7)
    assert verify_corollary1(info, 10**7 + 1)


WRONG_BLOCK_PRODUCTS = {
    "block+1": lambda real, start, m, strides: real(start, m + 1, strides),
    "stride+period": lambda real, start, m, strides: real(
        start, m, [s + start.period for s in strides]
    ),
}

# n per check: corollary 1 at m-hat = 2, the rad theorem, gcd-prime at n + 1 = 5
IDENTITY_NS = {"E6": (3, 1, 4), "F4": (7, 3, 4)}


@pytest.mark.parametrize("wrong", sorted(WRONG_BLOCK_PRODUCTS))
@pytest.mark.parametrize("label", sorted(IDENTITY_NS))
def test_identity_checks_fail_on_a_wrong_block_product(monkeypatch, label, wrong):
    info = catalog(label)
    n_cor, n_rad, n_prime = IDENTITY_NS[label]
    assert verify_corollary1(info, n_cor) and verify_rad_theorem(info, n_rad)
    assert gcd_prime_polynomial(info, n_prime) == char_poly(info, n_prime)
    real = arrangements._apply_block_product
    monkeypatch.setattr(
        arrangements, "_apply_block_product", partial(WRONG_BLOCK_PRODUCTS[wrong], real)
    )
    assert not verify_corollary1(info, n_cor)
    # E6 has rho = rad(rho), so eta = 1 at every n: its rad theorem applies
    # no factor whose stride could be wrong
    assert verify_rad_theorem(info, n_rad) == (label == "E6" and wrong == "stride+period")
    assert gcd_prime_polynomial(info, n_prime) != char_poly(info, n_prime)


def test_corollary1_fails_on_a_start_whose_period_does_not_divide_g(monkeypatch):
    # the block product needs the period of chi_quasi(g - 1) to divide every
    # stride c_j g; a start of period 3 at g = 4 fails the check, not raising
    info = catalog("F4")
    n, g = 7, 4
    assert verify_corollary1(info, n)
    real = char_quasi
    periodic = QuasiPoly(3, (RatPoly.zero(), RatPoly.one(), RatPoly.zero()))
    wrong = real(info, g - 1) + periodic
    assert g % wrong.period
    monkeypatch.setattr(
        arrangements, "char_quasi", lambda i, k: wrong if k == g - 1 else real(i, k)
    )
    assert not verify_corollary1(info, n)


def test_gcd_prime_polynomial_refuses_a_periodic_product(monkeypatch):
    # an explicit error, which python -O does not strip as it would an assert
    info = catalog("E6")
    real = arrangements._apply_block_product
    periodic = QuasiPoly(2, (RatPoly.zero(), RatPoly.one()))
    monkeypatch.setattr(arrangements, "_apply_block_product", lambda *a: real(*a) + periodic)
    with pytest.raises(PeriodConsistencyError, match="period 2"):
        gcd_prime_polynomial(info, 4)


def test_gcd_prime_polynomial():
    info = catalog("B2")
    # n + 1 = 2 shares a factor with rho = 2: not the coprime regime
    with pytest.raises(ValueError):
        gcd_prime_polynomial(info, 1)
    for n in (0, 2, 4):
        p = gcd_prime_polynomial(info, n)
        assert p == char_poly(info, n)
        assert char_quasi(info, n).period == 1


def test_shift_relation_needs_large_modulus():
    info = catalog("B2")
    # the shifted window [0, 3] only agrees once q clears its own regime
    assert not verify_shift_relation(info, 2, 1, 7)
    assert verify_shift_relation(info, 2, 1, 11)
    assert verify_shift_relation(info, 1, 1, 9)
    with pytest.raises(ValueError):
        verify_shift_relation(info, 2, 1, 6)  # gcd(q, rho) != 1
    with pytest.raises(ValueError, match="exceed the oracle budget"):
        verify_shift_relation(catalog("E8"), 1, 1, 101)  # 101^8 points is too many


def test_shift_relation_fails_at_its_first_window(monkeypatch):
    # below B2's agreement bound the [1, 2] count at q = 3 already misses chi(3)
    info = catalog("B2")
    assert oracle_count(info, 1, 2, 3) == 1
    assert char_poly(info, 2)(3) == 5
    windows = []

    def counted(info, a, b, q):
        windows.append((a, b))
        return oracle_count(info, a, b, q)

    monkeypatch.setattr(reference_algebra, "oracle_count", counted)
    assert not verify_shift_relation(info, 2, 1, 3)
    assert windows == [(1, 2)]  # refused before the shifted window is counted


def test_shift_relation_uses_the_oracle_budget():
    # 2 * 27^5 = 2.9e7 points: inside the oracle budget and the agreement regime
    assert verify_shift_relation(catalog("D5"), 1, 1, 27)


def test_char_poly_is_residue_one_constituent():
    # the single-slot fast path against the general all-slot apply_S, and
    # pointwise against the definition sum_k a_k L(t - (n+1)k) at t = 1 mod rho
    for label in ALL_TYPES:
        info = catalog(label)
        rho = info.period_rho
        L = ehrhart_quasi(info)
        a = generalized_eulerian(info)
        for n in sorted({0, 1, rho - 1, rho, 2 * rho + 1}):
            p = char_poly(info, n)
            f = apply_S(L, OperatorPoly(a, stride=n + 1))
            assert p.coeffs == f.constituents[1 % f.period].coeffs, (label, n)
            for t in range(1, 1 + rho * (info.rank + 1), rho):
                value = sum(c * L.eval(t - (n + 1) * k) for k, c in enumerate(a.coeffs))
                assert p(t) == value, (label, n, t)
    with pytest.raises(ValueError):
        char_poly(catalog("G2"), -1)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_char_poly_matches_reference_in_every_class(label):
    # the family K_g evaluated at N against one operator application per n:
    # every n = 0..2 rho + 1, and N = g + 10^5 rho, whose gcd with rho is g,
    # in every class g
    info = catalog(label)
    rho = info.period_rho
    ns = list(range(2 * rho + 2)) + [g + 10**5 * rho - 1 for g in sorted_divisors(rho)]
    for n in ns:
        assert char_poly(info, n) == reference_char_poly(info, n), (label, n)


def _interpolate(xs, ys) -> list:
    """Coefficients, lowest degree first, of the polynomial of degree
    < len(xs) through the points (xs, ys): Newton's divided differences,
    then the nested Newton form multiplied out."""
    c = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    out = [c[-1]]
    for x, ci in zip(xs[-2::-1], c[-2::-1]):
        # out <- out * (N - x) + ci
        out = [u - x * v for u, v in zip([0] + out, out + [0])]
        out[0] += ci
    return out


@pytest.mark.parametrize("label", ALL_TYPES)
def test_char_family_is_the_interpolant_in_N(label):
    # each coefficient of chi_n has degree <= l in N within a class g, so the
    # l + 1 nodes N = g + j rho, j <= l, computed through the reference
    # determine it, and the node j = l + 1 is to spare; the interpolant must
    # be the row of K_g / den, K_g[p][e] the coefficient of t^p N^e in the
    # family's one slot
    info = catalog(label)
    ell, rho = info.rank, info.period_rho
    for g in sorted_divisors(rho):
        nodes = [g + j * rho for j in range(ell + 2)]
        polys = [reference_char_poly(info, N - 1) for N in nodes]
        period, den, (K,) = arrangements._char_family(info, g)
        assert period == 1 and len(K) == ell + 1, (label, g)
        for p, row in enumerate(K):
            ys = [q.coeff(p) for q in polys]
            got = _interpolate(nodes[:-1], ys[:-1])
            assert RatPoly(got)(nodes[-1]) == ys[-1], (label, g, p)
            want = [Fraction(v, den) for v in row] + [0] * p
            assert got == want, (label, g, p)


def test_char_poly_applies_no_operator_per_n(monkeypatch):
    # once a class's family is built, a row of the table is one evaluation
    # of it at N: no tilde, no R_Phi, no moment table, no kernel pass
    info = catalog("E8")
    for g in sorted_divisors(info.period_rho):
        arrangements._char_family(info, g)
    # the reference applies R_Phi through the kernel, so it runs first
    want = {n: reference_char_poly(info, n) for n in (0, 1, 59, 60, 10**9 + 7)}

    def refuse(*args, **kwargs):
        raise AssertionError("char_poly built an operator")

    for name in ("_moment_table", "_operator_rows"):
        monkeypatch.setattr(quasipoly, name, refuse)
    for name in ("generalized_eulerian", "tilde", "ehrhart_quasi"):
        monkeypatch.setattr(arrangements, name, refuse)
    for n, poly in want.items():
        assert char_poly(info, n) == poly, n


GOLDEN_SPOT_CHECKS = [
    # (label, n, q) with q inside the agreement regime: formula == brute count
    ("E6", 1, 11),
    ("F4", 1, 11),
    ("G2", 2, 11),
    ("D4", 1, 7),
]


@pytest.mark.parametrize("label,n,q", GOLDEN_SPOT_CHECKS)
def test_formula_against_oracle_at_scale(label, n, q):
    info = catalog(label)
    assert q >= oracle_agreement_bound(info, n)
    assert char_quasi(info, n).eval(q) == oracle_count(info, 1, n, q)


GOLDEN_COUNTED = [
    # (label, n, q): q inside the agreement regime and at residue 1 of the
    # period, so the count is the frozen polynomial's value
    ("E6", 2, 22),
    ("F4", 5, 55),
]


@pytest.mark.parametrize("label,n,q", GOLDEN_COUNTED)
def test_golden_row_against_oracle(label, n, q):
    info = catalog(label)
    assert q >= oracle_agreement_bound(info, n)
    assert (q - 1) % char_quasi(info, n).period == 0
    coeffs = dict(GOLDEN[label])[n]
    assert sum(c * q**i for i, c in enumerate(coeffs)) == oracle_count(info, 1, n, q)
