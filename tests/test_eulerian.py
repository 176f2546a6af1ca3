"""Ascent-statistic polynomials: classical rows, the weighted analogue, and
their mod-(1-t)^(l+1) congruences."""

import math
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import ALL_TYPES
from linial.ehrhart import ehrhart_quasi
from linial.eulerian import eulerian, generalized_eulerian
from linial.quasipoly import _make
from linial.ratpoly import RatPoly
from linial.rootsystems import catalog
from reference_algebra import (
    _taylor_shift,
    congruent_mod_power,
    generalized_congruence_operator,
    generalized_eulerian_by_weyl,
    weyl_elements,
)


def brute_force_row(ell):
    """t^(1+ascents) summed over all permutations of 1..ell."""
    counts = [0] * (ell + 2)
    for perm in permutations(range(1, ell + 1)):
        asc = sum(1 for i in range(ell - 1) if perm[i] < perm[i + 1])
        counts[1 + asc] += 1
    return RatPoly(tuple(Fraction(c) for c in counts))


def test_small_rows_pinned():
    assert eulerian(0) == RatPoly.one()
    assert eulerian(1) == RatPoly((0, 1))
    assert eulerian(2) == RatPoly((0, 1, 1))
    assert eulerian(3) == RatPoly((0, 1, 4, 1))


@pytest.mark.parametrize("ell", range(1, 7))
def test_rows_against_permutation_enumeration(ell):
    assert eulerian(ell) == brute_force_row(ell)


@pytest.mark.parametrize("ell", range(0, 9))
def test_row_sum_is_factorial(ell):
    assert eulerian(ell)(Fraction(1)) == math.factorial(ell)


@pytest.mark.parametrize("ell", range(1, 9))
def test_row_palindrome(ell):
    # t^(ell+1) A(1/t) = A(t)
    cs = eulerian(ell).coeffs
    padded = cs + (Fraction(0),) * (ell + 2 - len(cs))
    assert padded == tuple(reversed(padded))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_generalized_degree_and_palindrome(label):
    info = catalog(label)
    R = generalized_eulerian(info)
    h = info.coxeter_h
    assert R.degree == h - 1
    padded = R.coeffs + (Fraction(0),) * (h + 1 - len(R.coeffs))
    assert padded == tuple(reversed(padded))


def test_generalized_reduces_to_classical_for_A():
    for ell in range(1, 9):
        assert generalized_eulerian(catalog(f"A{ell}")) == eulerian(ell)


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"]
)
def test_weyl_statistic_route(label):
    info = catalog(label)
    assert generalized_eulerian_by_weyl(info) == generalized_eulerian(info)


@pytest.mark.parametrize("label", ["A2", "B3", "D4", "F4", "G2"])
def test_value_at_one_counts_the_group(label):
    # R(1) * f = |W|
    info = catalog(label)
    R = generalized_eulerian(info)
    assert R(Fraction(1)) * info.index_f == len(weyl_elements(info))


# A prime modulus for ranks: full rank mod P implies full rank over Q.
P = 2**61 - 1


def worpitzky_rows(L, h):
    """R(S) L = t^l as integer rows in the h unknown coefficients of
    t^0..t^(h-1), one row per (slot r, power p) of L's period: entry k is
    coefficient p of den * L_((r-k) mod rho)(t - k), the right side
    den * [p = l]."""
    rho, width = L.period, len(L.rows[0])
    cols = [[_taylor_shift(L.rows[(r - k) % rho], -k) for r in range(rho)] for k in range(h)]
    rows = [[col[r][p] for col in cols] for r in range(rho) for p in range(width)]
    return rows, [L.den * (p == width - 1) for _ in range(rho) for p in range(width)]


def rank_mod_p(rows):
    rows = [[v % P for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(u - f * v) % P for u, v in zip(rows[i], top)]
        rank += 1
    return rank


def pinned_by_l(L, R, h):
    """Whether R(S) L = t^l, with R of degree < h, and that system has rank
    h, so R is its only solution: R_Phi is pinned by L_Phi."""
    rows, rhs = worpitzky_rows(L, h)
    den = math.lcm(*(c.denominator for c in R.coeffs), 1)
    x = [int(c * den) for c in R.coeffs] + [0] * (h - len(R.coeffs))
    if len(x) > h or any(sum(a * b for a, b in zip(row, x)) != den * b for row, b in zip(rows, rhs)):
        return False
    return rank_mod_p(rows) == h


@pytest.mark.parametrize("label", ALL_TYPES)
def test_r_phi_is_pinned_by_l_phi(label):
    info = catalog(label)
    L, R, h = ehrhart_quasi(info), generalized_eulerian(info), info.coxeter_h
    assert pinned_by_l(L, R, h)
    # with one unknown more the rank stays h: prod_i (1 - S^(c_i)), of
    # degree h, annihilates L
    assert rank_mod_p(worpitzky_rows(L, h + 1)[0]) == h
    # one constituent of L off, and one coefficient of R off, are refused
    rows = [list(row) for row in L.rows]
    rows[-1][0] += 1
    assert not pinned_by_l(_make(L.period, L.den, rows), R, h)
    assert not pinned_by_l(L, R + RatPoly.monomial(h // 2), h)


@pytest.mark.parametrize("ell", range(1, 8))
@pytest.mark.parametrize("n", range(2, 11))
def test_eulerian_congruence(ell, n):
    # the classical congruence is the case A_l, whose R_Phi is A_l (pinned above)
    lhs, rhs = generalized_congruence_operator(catalog(f"A{ell}"), n)
    assert congruent_mod_power(lhs, rhs, ell + 1)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C4", "D4", "G2", "F4", "E6"])
@pytest.mark.parametrize("n", range(2, 7))
def test_generalized_congruence(label, n):
    info = catalog(label)
    lhs, rhs = generalized_congruence_operator(info, n)
    assert congruent_mod_power(lhs, rhs, info.rank + 1)
