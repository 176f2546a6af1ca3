"""Characteristic quasi-polynomials of the offset-window deformations and the
finite-field counting oracle."""

from fractions import Fraction
from math import gcd

import pytest

from conftest import ALL_TYPES, SMALL_TYPES
from linial.arrangements import (
    char_poly,
    char_quasi,
    gcd_prime_polynomial,
    oracle_agreement_bound,
    oracle_count,
    verify_corollary1,
    verify_main_theorem,
    verify_rad_theorem,
    verify_shift_relation,
)
from linial.ehrhart import ehrhart_quasi
from linial.eulerian import generalized_eulerian
from linial.quasipoly import OperatorPoly, apply_S, minimal_period
from linial.ratpoly import RatPoly, render_poly
from linial.rootsystems import catalog


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
            assert g % minimal_period(f).period == 0, (label, n)


def test_gcd_prime_polynomial():
    info = catalog("B2")
    # n + 1 = 2 shares a factor with rho = 2: not the coprime regime
    with pytest.raises(ValueError):
        gcd_prime_polynomial(info, 1)
    for n in (0, 2, 4):
        p = gcd_prime_polynomial(info, n)
        assert p == char_poly(info, n)
        assert minimal_period(char_quasi(info, n)).period == 1


def test_shift_relation_needs_large_modulus():
    info = catalog("B2")
    # the shifted window [0, 3] only agrees once q clears its own regime
    assert not verify_shift_relation(info, 2, 1, 7)
    assert verify_shift_relation(info, 2, 1, 11)
    assert verify_shift_relation(info, 1, 1, 9)
    with pytest.raises(ValueError):
        verify_shift_relation(info, 2, 1, 6)  # gcd(q, rho) != 1
    with pytest.raises(ValueError):
        verify_shift_relation(catalog("E8"), 1, 1, 101)  # 101^8 points is too many


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
            f = minimal_period(apply_S(L, OperatorPoly(a, stride=n + 1)))
            assert p.coeffs == f.constituents[1 % f.period].coeffs, (label, n)
            for t in range(1, 1 + rho * (info.rank + 1), rho):
                value = sum(c * L.eval(t - (n + 1) * k) for k, c in enumerate(a.coeffs))
                assert p(t) == value, (label, n, t)
    with pytest.raises(ValueError):
        char_poly(catalog("G2"), -1)


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
