"""Alcove lattice-point counts, their quasi-polynomials, and the per-mark
decomposition, checked against references kept here: nested-loop counting,
and the decomposition by partial fractions over Q[x]."""

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from conftest import ALL_TYPES
from linial.ehrhart import (
    PeriodConsistencyError,
    decompose_ehrhart,
    denumerant_count,
    ehrhart_quasi,
)
from linial.quasipoly import QuasiPoly, _make, sorted_divisors, tilde
from linial.ratpoly import RatPoly
from linial.rootsystems import catalog, positive_roots
from reference_algebra import (
    EXCEPTIONAL_RELATIONS,
    cross_type_relation_check,
    cyclotomic_type,
    poly_divmod,
    poly_gcd,
    series_quasi,
    sigma_pow,
    weyl_group_order,
)


def denumerant_count_slow(info, q):
    """Reference count: literal nested loops over x_1..x_l, exponential in
    rank * q, so only for small instances."""
    if q < 0:
        raise ValueError("q must be >= 0")
    cs = info.marks[1:]  # drop c_0

    def rec(i, rem):
        if i == len(cs):
            return 1
        c = cs[i]
        return sum(rec(i + 1, rem - c * x) for x in range(rem // c + 1))

    return rec(0, q)


def partial_fractions(numerator, factors):
    """Numerators g_i with sum_i g_i * prod_{j != i} f_j = numerator and
    deg g_i < deg f_i, for pairwise-coprime factors; exact linear solve."""
    degs = [f.degree for f in factors]
    if any(f.is_zero or f.degree < 1 for f in factors):
        raise ValueError("factors must be non-constant")
    if numerator.degree >= sum(degs):
        raise ValueError("improper rational function")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if poly_gcd(factors[i], factors[j]).degree > 0:
                raise ValueError("factors are not pairwise coprime")

    cofactors = []
    for i in range(len(factors)):
        acc = RatPoly.one()
        for j, f in enumerate(factors):
            if j != i:
                acc = acc * f
        cofactors.append(acc)

    size = sum(degs)
    # columns: one unknown per coefficient t^k of each g_i
    cols = []
    for i, f in enumerate(factors):
        for k in range(f.degree):
            shifted = RatPoly.monomial(k) * cofactors[i]
            cols.append([shifted.coeff(row) for row in range(size)])
    rhs = [numerator.coeff(row) for row in range(size)]

    # Gaussian elimination with partial pivoting, exact over Q
    mat = [[cols[c][r] for c in range(size)] + [rhs[r]] for r in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            raise RuntimeError("singular partial-fraction system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(size):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    solution = [mat[r][size] for r in range(size)]

    out = []
    pos = 0
    for f in factors:
        out.append(RatPoly(solution[pos : pos + f.degree]))
        pos += f.degree
    return out


@lru_cache(maxsize=None)
def cyclotomic_factor(d):
    """The factor of 1 - x^c attached to primitive d-th roots of unity,
    normalized to constant term 1: psi_1 = 1 - x, psi_d = Phi_d for d >= 2,
    so that 1 - x^c = prod_{d | c} psi_d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return RatPoly((1, -1))
    # Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e, with Phi_1 = x - 1
    num = RatPoly.monomial(d) - RatPoly.one()
    den = RatPoly((-1, 1))  # Phi_1
    for e in sorted_divisors(d)[1:-1]:
        den = den * cyclotomic_factor(e)
    quotient, rem = poly_divmod(num, den)
    assert rem.is_zero
    return quotient


def partial_fraction_series(info):
    """(d, numerator, [(d, m)]) per cyclotomic order d: 1 / prod (1 - x^c)
    split by partial fractions over the factors psi_d^m, m = mult(d), each
    piece g / psi_d^m rewritten over (1 - x^d)^m."""
    orders = sorted({e for c in info.marks for e in sorted_divisors(c)})
    mult = {d: sum(1 for c in info.marks if c % d == 0) for d in orders}

    factors = [cyclotomic_factor(d) ** mult[d] for d in orders]
    check = RatPoly.one()
    for f in factors:
        check = check * f
    target = RatPoly.one()
    for c in info.marks:
        target = target * (RatPoly.one() - RatPoly.monomial(c))
    assert check == target, "cyclotomic grouping failed to recombine"

    numerators = partial_fractions(RatPoly.one(), factors)
    series = []
    for d, g in zip(orders, numerators):
        conv = RatPoly.one()
        for e in sorted_divisors(d)[:-1]:
            conv = conv * cyclotomic_factor(e)
        series.append((d, g * conv ** mult[d], [(d, mult[d])]))
    return series


def integer_terms(numerator):
    """``(terms, den)`` with numerator = sum_e terms[e] x^e / den, integers."""
    den = math.lcm(1, *(c.denominator for c in numerator.coeffs))
    return {e: int(c * den) for e, c in enumerate(numerator.coeffs) if c}, den


def reference_decompose(info):
    """The per-order pieces of L, each partial-fraction series converted by
    the test-side ``series_quasi``."""
    return [
        (d, series_quasi(*integer_terms(numerator), spec))
        for d, numerator, spec in partial_fraction_series(info)
    ]


RANK4_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


def test_pinned_counts():
    assert denumerant_count(catalog("G2"), 6) == 7
    assert denumerant_count(catalog("A2"), 3) == 10
    assert ehrhart_quasi(catalog("G2")).eval(6) == 7
    assert ehrhart_quasi(catalog("A2")).eval(3) == 10


def test_binomial_formula_for_A():
    # L(q) = C(q + ell, ell)
    from math import comb

    for ell in range(1, 7):
        info = catalog(f"A{ell}")
        L = ehrhart_quasi(info)
        assert L.period == 1
        for q in range(0, 20):
            assert L.eval(q) == comb(q + ell, ell)


@pytest.mark.parametrize("label", RANK4_TYPES)
def test_fast_denumerant_matches_nested_loops(label):
    info = catalog(label)
    for q in range(0, 31):
        assert denumerant_count(info, q) == denumerant_count_slow(info, q)


@pytest.mark.parametrize("label", RANK4_TYPES + ["E6", "G2"])
def test_quasipolynomial_matches_count(label):
    info = catalog(label)
    L = ehrhart_quasi(info)
    for q in range(0, 3 * info.period_rho * (info.rank + 1) + 1):
        assert L.eval(q) == denumerant_count(info, q)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_minimal_period_is_rho(label):
    info = catalog(label)
    assert ehrhart_quasi(info).period == info.period_rho


@pytest.mark.parametrize("label", ALL_TYPES)
def test_suter_duality_and_vanishing(label):
    info = catalog(label)
    L = ehrhart_quasi(info)
    h, rho, sign = info.coxeter_h, info.period_rho, (-1) ** info.rank
    for q in range(-3 * rho, 3 * rho + 1):
        assert L.eval(-q) == sign * L.eval(q - h)
    for q in range(1, h):
        assert L.eval(-q) == 0


def exponents(info):
    """The exponents e_1 <= ... <= e_l, read off the heights of the positive
    roots, not the marks: #{roots of height k} = #{i : e_i >= k} (Kostant
    1959)."""
    count = [0] * (info.coxeter_h + 1)
    for root in positive_roots(info):
        count[sum(root)] += 1
    return [k for k in range(1, len(count) - 1) for _ in range(count[k] - count[k + 1])]


def cartan_determinant(cartan):
    """det A by elimination without pivoting: the leading principal minors
    of a Cartan matrix of finite type are all positive."""
    a = [[Fraction(v) for v in row] for row in cartan]
    det = Fraction(1)
    for i, pivot_row in enumerate(a):
        det *= pivot_row[i]
        for row in a[i + 1 :]:
            f = row[i] / pivot_row[i]
            row[:] = [u - f * v for u, v in zip(row, pivot_row)]
    return det


def coprime_constituents_from_exponents(info, L):
    """Whether every constituent of L at a residue coprime to rho is
    (det A / prod(e_i + 1)) prod(t + e_i) (Suter, Math. Comp. 67 (1998)),
    and prod(e_i + 1) is |W| (Chevalley 1955); only L and |W| come from
    the marks."""
    exps = exponents(info)
    order = math.prod(e + 1 for e in exps)
    want = RatPoly((cartan_determinant(info.cartan) / order,))
    for e in exps:
        want = want * RatPoly((e, 1))
    rho, cs = info.period_rho, L.constituents
    coprime = [r for r in range(rho) if gcd(r, rho) == 1]
    return order == weyl_group_order(info) and all(cs[r % L.period] == want for r in coprime)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_coprime_constituents_from_the_exponents(label):
    info = catalog(label)
    assert len(exponents(info)) == info.rank
    L = ehrhart_quasi(info)
    assert coprime_constituents_from_exponents(info, L)
    # one coefficient off at the coprime residue 1 is refused
    rows = [list(row) for row in L.rows]
    rows[1 % L.period][0] += 1
    assert not coprime_constituents_from_exponents(info, _make(L.period, L.den, rows))


def test_exponents_pinned():
    assert exponents(catalog("E8")) == [1, 7, 11, 13, 17, 19, 23, 29]
    assert exponents(catalog("G2")) == [1, 5]
    assert exponents(catalog("D4")) == [1, 3, 3, 5]
    assert cartan_determinant(catalog("E6").cartan) == 3


def test_cyclotomic_factors():
    x = RatPoly((0, 1))
    assert cyclotomic_factor(1) == RatPoly((1, -1))
    assert cyclotomic_factor(2) == RatPoly((1, 1))
    assert cyclotomic_factor(4) == RatPoly((1, 0, 1))
    assert cyclotomic_factor(6) == RatPoly((1, -1, 1))
    for c in range(1, 31):
        prod = RatPoly.one()
        for d in range(1, c + 1):
            if c % d == 0:
                prod = prod * cyclotomic_factor(d)
        assert prod == RatPoly.one() - RatPoly.monomial(c)


def test_partial_fractions_recombines():
    factors = [RatPoly((1, -1)) ** 2, cyclotomic_type(3)]
    for numerator in (RatPoly.one(), RatPoly((0, 1)), RatPoly((2, -1, 5))):
        nums = partial_fractions(numerator, factors)
        # sum of g_i * prod_{j != i} f_j must reassemble the numerator
        total = RatPoly.zero()
        for i, g in enumerate(nums):
            cofactor = RatPoly.one()
            for j, f in enumerate(factors):
                if j != i:
                    cofactor = cofactor * f
            total = total + g * cofactor
        assert total == numerator
        for g, f in zip(nums, factors):
            assert g.is_zero or g.degree < f.degree


def test_partial_fractions_rejects_bad_input():
    one_minus_x = RatPoly((1, -1))
    with pytest.raises(ValueError):
        partial_fractions(RatPoly.one(), [one_minus_x, one_minus_x])  # not coprime
    with pytest.raises(ValueError):
        partial_fractions(RatPoly.monomial(5), [one_minus_x ** 2])  # improper
    with pytest.raises(ValueError):
        partial_fractions(RatPoly.one(), [RatPoly.one()])  # constant factor


def _newton_interpolate(start, step, values):
    """Polynomial through (start + j*step, values[j]) by forward differences."""
    diffs = [Fraction(v) for v in values]
    poly = RatPoly.zero()
    term = RatPoly.one()
    for m in range(len(values)):
        poly = poly + term.scale(diffs[0] / (math.factorial(m) * step**m))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        term = term * RatPoly((-(start + m * step), 1))
    return poly


def reference_series_to_quasipoly(numerator, denominator_spec, t0=0):
    """The quasi-polynomial of numerator / prod_d (1 - x^d)^mult from a
    Fraction series with Fraction Newton interpolation per residue class,
    through the nodes from t0 on."""
    p = math.lcm(*(d for d, _ in denominator_spec))
    dbound = sum(mult for _, mult in denominator_spec) - 1
    length = t0 + p * (dbound + 3)
    series = [Fraction(0)] * length
    for i, c in enumerate(numerator.coeffs):
        series[i] = c
    for d, mult in denominator_spec:
        for _ in range(mult):
            for j in range(d, length):
                series[j] += series[j - d]
    slots = [None] * p
    for r in range(t0, t0 + p):
        slot = _newton_interpolate(r, p, [series[r + j * p] for j in range(dbound + 1)])
        spare = r + (dbound + 1) * p
        assert slot(spare) == series[spare]
        slots[r % p] = slot
    return QuasiPoly(p, slots)


def assert_same_constituents(a, b):
    assert a.period == b.period and a.constituents == b.constituents


@pytest.mark.parametrize("label", ALL_TYPES)
def test_integer_interpolation_matches_fraction_newton(label):
    # ehrhart_quasi, and series_quasi on every series behind reference_decompose
    info = catalog(label)
    spec = [(c, 1) for c in info.marks]
    assert_same_constituents(
        ehrhart_quasi(info), reference_series_to_quasipoly(RatPoly.one(), spec)
    )
    series = partial_fraction_series(info)
    for _, numerator, denominator_spec in series:
        want = reference_series_to_quasipoly(numerator, denominator_spec)
        assert_same_constituents(series_quasi(*integer_terms(numerator), denominator_spec), want)
    if len(series) > 1:  # the pieces have rational, non-integer numerators
        assert any(c.denominator > 1 for _, numerator, _ in series for c in numerator.coeffs)


def test_series_to_quasipoly_rational_numerator():
    # (1/3 + 5/2 x) / (1 - x)^2 (1 - x^3), as (2 + 15 x) / 6 for the integer
    # series route: the spare node holds on every class
    num = RatPoly((Fraction(1, 3), Fraction(5, 2)))
    spec = [(1, 2), (3, 1)]
    f = series_quasi({0: 2, 1: 15}, 6, spec)
    assert_same_constituents(f, reference_series_to_quasipoly(num, spec))


@pytest.mark.parametrize(
    "terms",
    [
        {7: 2},  # improper, nothing to reduce: 7 = 1 + 3 * 2 with 2 < M = 3
        {7: 2, 20: -3, 41: 1},  # 20 = 2 + 3 * 6 and 41 = 2 + 3 * 13 are reduced
        {0: 5, 3000: -1},
    ],
)
def test_series_quasi_reduces_improper_numerators(terms):
    # the reducing series route kept as the reference for char_quasi, on
    # numerator / (1 - x)^2 (1 - x^3); the eventual quasi-polynomial, from
    # the unreduced series interpolated past the numerator's degree
    spec = [(1, 2), (3, 1)]
    numerator = RatPoly([terms.get(i, 0) for i in range(max(terms) + 1)])
    want = reference_series_to_quasipoly(numerator, spec, t0=max(terms))
    for den in (1, 7):
        f = series_quasi(terms, den, spec)
        assert_same_constituents(f, want.scale(Fraction(1, den)))


def test_series_to_quasipoly_geometric():
    # 1 / (1 - x^2) expands with coefficients 1,0,1,0,...
    f = series_quasi({0: 1}, 1, [(2, 1)])
    assert f.eval(4) == 1 and f.eval(5) == 0


def test_series_to_quasipoly_spare_node_catches_a_short_period():
    # with B2's period forced to 1, the quadratic through the series
    # 1, 2, 4 of 1 / (1 - x)^2 (1 - x^2) at nodes 0..2 reads 7 at node 3,
    # where the series has 6
    with pytest.raises(PeriodConsistencyError, match="residue 0 misses node 3"):
        ehrhart_quasi.__wrapped__(catalog("B2")._replace(period_rho=1))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_decomposition_matches_partial_fractions(label):
    # Moebius inversion of tilde gives the partial-fraction pieces exactly
    info = catalog(label)
    got = [(d, p.period, p.den, p.rows) for d, p in decompose_ehrhart(info)]
    want = [(d, p.period, p.den, p.rows) for d, p in reference_decompose(info)]
    assert got == want


@pytest.mark.parametrize("label", ALL_TYPES)
def test_decomposition_resums(label):
    info = catalog(label)
    parts = decompose_ehrhart(info)
    assert [d for d, _ in parts] == sorted(set(info.marks))
    total = parts[0][1]
    for _, part in parts[1:]:
        total = total + part
    assert total == ehrhart_quasi(info)
    # l-hat: the number of marks c_1..c_l that d divides
    lhat = {d: sum(1 for c in info.marks if c % d == 0) - 1 for d in set(info.marks)}
    for d, part in parts:
        assert info.period_rho % part.period == 0
        assert part.period <= d
        if not part.degree == float("-inf"):
            assert part.degree <= lhat[d]


def test_decomposition_degrees_pinned():
    e6 = decompose_ehrhart(catalog("E6"))
    assert [(d, int(p.degree)) for d, p in e6] == [(1, 6), (2, 2), (3, 0)]
    f4 = decompose_ehrhart(catalog("F4"))
    assert [(d, int(p.degree)) for d, p in f4] == [(1, 4), (2, 2), (3, 0), (4, 0)]
    a5 = decompose_ehrhart(catalog("A5"))
    assert len(a5) == 1 and a5[0][1] == ehrhart_quasi(catalog("A5"))


def test_root_ehrhart_relation_all_types():
    # [c_0]_S ... [c_l]_S applied to L recovers the all-ones family count
    for label in ALL_TYPES:
        info = catalog(label)
        operator = [(cyclotomic_type(c), 1) for c in info.marks]
        assert cross_type_relation_check(info, operator, catalog(f"A{info.rank}"))


def test_rank_lowering_chain_for_A():
    one_minus_S = RatPoly((1, -1))
    for ell in range(2, 9):
        assert cross_type_relation_check(
            catalog(f"A{ell}"), [(one_minus_S, 1)], catalog(f"A{ell - 1}")
        )


def test_remark_relations():
    S1 = RatPoly((1, -1))
    cases = []
    for ell in range(3, 9):
        cases.append((f"C{ell}", [(S1, 2)], f"C{ell - 1}", None))
    for ell in range(5, 9):
        cases.append((f"D{ell}", [(S1, 2)], f"D{ell - 1}", None))
    for lhs, op, rhs, rop in cases + EXCEPTIONAL_RELATIONS:
        assert cross_type_relation_check(catalog(lhs), op, catalog(rhs), rop), (lhs, rhs)


@pytest.mark.parametrize("label", ["E7", "E8", "F4", "B3", "G2", "A4"])
def test_coprime_constituents_depend_only_on_radical(label):
    # slots j with gcd(j, n) = 1 of tilde(L, gcd(k, rho)) and of
    # tilde(L, gcd(k, rad rho)) coincide
    info = catalog(label)
    L = ehrhart_quasi(info)
    rho, rad = info.period_rho, info.rad_rho
    for k in range(1, 2 * rho + 1):
        a = tilde(L, gcd(k, rho))
        b = tilde(L, gcd(k, rad))
        n = max(a.period, b.period)
        aa, bb = a.constituents, b.constituents
        for j in range(n):
            if gcd(j, n) == 1:
                assert aa[j % a.period] == bb[j % b.period], (label, k, j)


def test_sigma_interacts_with_ehrhart():
    # rotating by rho is the identity on L, and rotating by rho / p is not
    # for any prime p dividing rho: L's minimal period is rho itself
    info = catalog("F4")
    L = ehrhart_quasi(info)
    rho = info.period_rho
    assert sigma_pow(L, rho) == L
    for p in (2, 3):
        assert sigma_pow(L, rho // p) != L
