"""Numeric root finding and the exact vertical-line certificate."""

import cmath
import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from linial.ratpoly import RatPoly
from linial import rootline
from linial.rootline import (
    _aberth_roots,
    _primitive,
    _shift_integers,
    _squarefree_parts,
    verify_line,
)
from linial.rootsystems import catalog
from linial.arrangements import char_poly

from conftest import ALL_TYPES
from reference_algebra import derivative, poly_divmod, poly_gcd, reference_shift_argument


def centroid_roots(p: RatPoly) -> list[complex]:
    """All roots of p, from ``verify_line`` about the centroid of the
    roots, -c_(d-1) / (d c_d)."""
    cs = p.coeffs
    return list(verify_line(p, -cs[-2] / ((len(cs) - 1) * cs[-1])).roots)


def test_linear():
    assert centroid_roots(RatPoly((-3, 2))) == [complex(Fraction(3, 2))]


def test_simple_real_roots():
    p = RatPoly((-6, 11, -6, 1))  # (t-1)(t-2)(t-3)
    roots = centroid_roots(p)
    assert len(roots) == 3
    for z, want in zip(sorted(roots, key=lambda w: w.real), (1, 2, 3)):
        assert abs(z - want) < 1e-12


def test_imaginary_pair():
    roots = centroid_roots(RatPoly((1, 0, 1)))
    assert abs(roots[0] + 1j) < 1e-14
    assert abs(roots[1] - 1j) < 1e-14


def test_deterministic_ordering():
    p = RatPoly((-6, 11, -6, 1)) * RatPoly((1, 0, 1))
    assert centroid_roots(p) == centroid_roots(p)


def test_multiplicities():
    # t^3 (t - 1) about 0: zero root three times, exactly
    roots = verify_line(RatPoly((0, 0, 0, -1, 1)), 0).roots
    assert roots.count(0j) == 3
    assert abs(roots[-1] - 1) < 1e-12
    # (t - 2)^2 via the squarefree split
    roots = centroid_roots(RatPoly((4, -4, 1)))
    assert len(roots) == 2
    assert all(abs(z - 2) < 1e-9 for z in roots)


def test_rejects_constants():
    with pytest.raises(ValueError, match="degree >= 1"):
        verify_line(RatPoly.one(), 0)
    with pytest.raises(ValueError, match="degree >= 1"):
        verify_line(RatPoly.zero(), Fraction(1, 2))


def test_big_coefficients():
    # large-scale roots still come back accurately
    p = RatPoly((10**12 + 1, -(2 * 10**6 + 1), 1))  # ~(t - 1e6)^2 + small
    roots = centroid_roots(p)
    assert len(roots) == 2
    prod = roots[0] * roots[1]
    assert abs(prod.real - (10**12 + 1)) < 1e-2


def test_verify_line_accepts_A2():
    p = char_poly(catalog("A2"), 1)
    rep = verify_line(p, Fraction(3, 2))
    assert rep.max_deviation < 1e-12
    assert rep.symmetry_exact and rep.sturm_exact and rep.squarefree
    assert len(rep.roots) == 2


def test_verify_line_rejects_real_pair():
    # roots 1 and 2 are symmetric about 3/2 but NOT on the vertical line
    p = RatPoly((2, -3, 1))
    rep = verify_line(p, Fraction(3, 2))
    assert rep.symmetry_exact  # symmetry alone cannot tell
    assert not rep.sturm_exact  # the Sturm half can
    assert rep.max_deviation > 0.4


def test_verify_line_rejects_asymmetric():
    p = RatPoly((0, 12, -7, 1))  # t(t-3)(t-4)
    rep = verify_line(p, Fraction(2))
    assert not rep.symmetry_exact
    assert not rep.sturm_exact
    # t^2 + t + 1 at 0: its even part alone, t^2 + 1, would pass the count
    rep = verify_line(RatPoly((1, 1, 1)), 0)
    assert not rep.symmetry_exact
    assert not rep.sturm_exact


def test_verify_line_certifies_repeated_roots():
    p = RatPoly((1, 0, 1)) ** 2  # (t^2 + 1)^2: on the line, but not squarefree
    rep = verify_line(p, 0)
    assert rep.symmetry_exact
    assert not rep.squarefree
    assert rep.sturm_exact  # decided on the squarefree part t^2 + 1
    assert rep.max_deviation < 1e-7


def test_verify_line_rejects_repeated_real_pair():
    # ((t-1)(t-2))^2: symmetric about 3/2 but off the vertical line
    p = RatPoly((2, -3, 1)) ** 2
    rep = verify_line(p, Fraction(3, 2))
    assert rep.symmetry_exact and not rep.squarefree
    assert not rep.sturm_exact


def test_verify_line_monomial():
    rep = verify_line(RatPoly.monomial(4), 0)
    assert rep.max_deviation == 0.0
    assert rep.symmetry_exact and not rep.squarefree


def _table_rows():
    """The original spot rows, then every catalogued type at n = 1, rho,
    2 rho + 1 and 120, capped at n = 120 (which drops 2 rho + 1 for E8)."""
    rows = [
        ("A2", 1, Fraction(3, 2)),
        ("G2", 1, 3),
        ("F4", 2, 12),
        ("E6", 1, 6),
        ("E7", 1, Fraction(9)),
    ]
    seen = {row[:2] for row in rows}
    for label in ALL_TYPES:
        info = catalog(label)
        for n in sorted({1, info.period_rho, 2 * info.period_rho + 1, 120}):
            if n <= 120 and (label, n) not in seen:
                rows.append((label, n, Fraction(n * info.coxeter_h, 2)))
    return rows


@pytest.mark.parametrize("label,n,target", _table_rows())
def test_table_rows_on_the_line(label, n, target):
    p = char_poly(catalog(label), n)
    rep = verify_line(p, Fraction(target))
    assert rep.max_deviation < 1e-10
    assert rep.symmetry_exact and rep.sturm_exact and rep.squarefree


def test_max_deviation_measured_before_the_shift():
    # at E8 n = 10^5 the line sits at 1.5e6, where adding it back rounds
    # every reported real part onto it; the centred roots still deviate
    # by ~4e-27
    rep = verify_line(char_poly(catalog("E8"), 10**5), 15 * 10**5)
    assert 0 < rep.max_deviation < 1e-9


def test_beyond_float_range_is_a_value_error():
    # the centred coefficients of E8 at n = 10^40 reach ~10^330
    p = char_poly(catalog("E8"), 10**40)
    with pytest.raises(ValueError, match="float range"):
        verify_line(p, 15 * 10**40)


def test_roots_beyond_float_range_are_a_value_error():
    # r(s) = p(s + a) = s - 10^308 has float coefficients, but the root of
    # p, 2.5e308, does not fit
    p = RatPoly((-25 * 10**307, 1))
    with pytest.raises(ValueError, match="float range"):
        verify_line(p, 15 * 10**307)


def test_large_n_stays_finite():
    # the centred coefficients of E8 at n = 10^37 reach ~10^300: unscaled
    # Horner steps would overflow to nan
    rep = verify_line(char_poly(catalog("E8"), 10**37), 15 * 10**37)
    assert all(cmath.isfinite(z) for z in rep.roots)
    assert math.isfinite(rep.max_deviation)
    assert rep.symmetry_exact and rep.sturm_exact


def test_unconverged_roots_are_an_error(monkeypatch):
    monkeypatch.setattr(rootline, "_MAX_SWEEPS", 1)
    p = char_poly(catalog("E6"), 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        verify_line(p, 6)


def _assert_match_numpy(r: list[int]):
    """The roots of each squarefree part of r against the reference, the
    companion-matrix eigenvalues of ``numpy.roots``."""
    for q in _squarefree_parts(r):
        want = [complex(z) for z in np.roots([float(Fraction(c, q[-1])) for c in reversed(q)])]
        tol = 1e-12 * max(abs(w) for w in want)
        _assert_close_multisets(_aberth_roots([q]), want, tol)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_roots_match_numpy_on_centred_parts(label):
    info = catalog(label)
    for n in [*range(1, 2 * info.period_rho + 2), 10**5]:
        a = Fraction(n * info.coxeter_h, 2)
        _assert_match_numpy(_primitive(_shift_integers(char_poly(info, n), a)[0]))


# ---------------------------------------------------------------------------
# Reference: the rational-arithmetic certificate that verify_line's integer
# Sturm chains replaced, kept to check that the verdicts do not change.


def _primitive_int_coeffs(p: RatPoly) -> list[int]:
    """Scale by a positive rational to primitive integer coefficients."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _sign_at_inf(coeffs: Sequence[int], positive: bool) -> int:
    lead = coeffs[-1]
    if positive:
        return 1 if lead > 0 else -1
    return (1 if lead > 0 else -1) * (1 if (len(coeffs) - 1) % 2 == 0 else -1)


def sturm_count_real_roots(p: RatPoly) -> int:
    """Number of distinct real roots of a squarefree ``p``, by exact Sturm
    chains over (-inf, +inf).

    Coefficient growth in the chain is tamed by stripping each remainder to
    a primitive integer polynomial (a positive rescale, which leaves the
    chain's sign variations untouched).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    if poly_gcd(p, derivative(p)).degree > 0:
        raise ValueError("polynomial is not squarefree")

    chain: list[list[int]] = [_primitive_int_coeffs(p)]
    d = derivative(p)
    if not d.is_zero:
        chain.append(_primitive_int_coeffs(d))
        while True:
            f = RatPoly(chain[-2])
            g = RatPoly(chain[-1])
            _, r = poly_divmod(f, g)
            if r.is_zero:
                break
            chain.append(_primitive_int_coeffs(-r))
            if len(chain[-1]) == 1:
                break

    def variations(positive: bool) -> int:
        signs = [_sign_at_inf(c, positive) for c in chain]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def reference_verdicts(p: RatPoly, a: Fraction) -> tuple[bool, bool, bool]:
    """(symmetry, Sturm, squarefree) by Fraction shift, gcd and Sturm chain."""
    r = reference_shift_argument(p, a)  # r(s) = p(s + a)
    deg = int(r.degree)
    symmetry = all(c == 0 for k, c in enumerate(r.coeffs) if (k - deg) % 2)
    g = poly_gcd(r, derivative(r))
    sturm_ok = False
    if symmetry:
        q, _ = poly_divmod(r, g)
        d = int(q.degree)
        w = RatPoly(
            tuple(
                c * (-1) ** ((d - k) // 2) if (d - k) % 2 == 0 else Fraction(0)
                for k, c in enumerate(q.coeffs)
            )
        )
        sturm_ok = sturm_count_real_roots(w) == d
    return symmetry, sturm_ok, g.degree <= 0


def _verdicts(rep) -> tuple[bool, bool, bool]:
    return rep.symmetry_exact, rep.sturm_exact, rep.squarefree


def test_sturm_counts():
    # (t-1)(t-2)(t-3): three real roots
    p = RatPoly((-6, 11, -6, 1))
    assert sturm_count_real_roots(p) == 3
    # t^2 + 1: none
    assert sturm_count_real_roots(RatPoly((1, 0, 1))) == 0
    # (t^2+1)(t-5): one
    assert sturm_count_real_roots(RatPoly((1, 0, 1)) * RatPoly((-5, 1))) == 1
    with pytest.raises(ValueError):
        sturm_count_real_roots(RatPoly.zero())
    with pytest.raises(ValueError):
        sturm_count_real_roots(RatPoly((0, 0, 1)))  # repeated root


def test_sturm_scaling_invariance():
    p = RatPoly((-6, 11, -6, 1)).scale(Fraction(3, 7))
    assert sturm_count_real_roots(p) == 3


@pytest.mark.parametrize("label", ALL_TYPES)
def test_verdicts_match_reference_on_table_rows(label):
    info = catalog(label)
    rho = info.period_rho
    for n in sorted({0, 1, rho, 2 * rho + 1}):
        if n > 120:
            continue
        p = char_poly(info, n)
        target = Fraction(n * info.coxeter_h, 2)
        rep = verify_line(p, target)
        assert _verdicts(rep) == reference_verdicts(p, target), (label, n)
        assert len(rep.roots) == info.rank


def _random_case(rng: random.Random):
    """A product of factors with known roots, each to a power 1..3, and the
    line a that the structured factors share."""
    a = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    p, roots = RatPoly.one(), []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice((0, 0, 0, 1, 1, 2, 3))
        if kind == 0:  # (t - a)^2 + b^2: a pair on the line
            b = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
            f = RatPoly((a * a + b * b, -2 * a, 1))
            zs = [complex(float(a), float(b)), complex(float(a), -float(b))]
        elif kind == 1:  # t - a: a real root on the line
            f, zs = RatPoly((-a, 1)), [complex(float(a))]
        elif kind == 2:  # (t - a)^2 - c^2: a real pair off the line
            c = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
            f = RatPoly((a * a - c * c, -2 * a, 1))
            zs = [complex(float(a + c)), complex(float(a - c))]
        else:  # a small random integer polynomial
            cs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
            cs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
            f = RatPoly(cs)
            zs = [complex(z) for z in np.roots(cs[::-1])]
        k = rng.randint(1, 3)
        p, roots = p * f**k, roots + zs * k
    k = rng.choice((0, 0, 0, 1, 2))
    return p * RatPoly.monomial(k), a, roots + [0j] * k


def _assert_close_multisets(got, want, tol):
    assert len(got) == len(want)
    left = list(want)
    for z in got:
        i = min(range(len(left)), key=lambda j: abs(left[j] - z))
        assert abs(left.pop(i) - z) <= tol, (z, got, want)


def test_verdicts_match_reference_on_random_products():
    rng = random.Random(20200601)
    certified = 0
    for _ in range(500):
        p, a, roots = _random_case(rng)
        rep = verify_line(p, a)
        assert _verdicts(rep) == reference_verdicts(p, a), (p, a)
        certified += rep.symmetry_exact and rep.sturm_exact
        _assert_close_multisets(centroid_roots(p), roots, 1e-6)
        _assert_close_multisets(rep.roots, roots, 1e-6)
    assert 100 <= certified <= 400  # both verdicts are well represented


def test_roots_match_numpy_on_random_products():
    rng = random.Random(20200601)
    for _ in range(500):
        p, a, _ = _random_case(rng)
        _assert_match_numpy(_primitive(_shift_integers(p, a)[0]))


def test_root_report_record():
    # the report's repr, hash and field names
    rep = verify_line(RatPoly((2, -2, 1)), 1)  # roots 1 +- i
    assert repr(rep) == (
        "RootReport(target_real_part=Fraction(1, 1), roots=((1-1j), (1+1j)), "
        "max_deviation=0.0, symmetry_exact=True, sturm_exact=True, squarefree=True)"
    )
    double = verify_line(RatPoly((0, 0, 1)), 0)
    assert repr(double) == (
        "RootReport(target_real_part=Fraction(0, 1), roots=(0j, 0j), "
        "max_deviation=0.0, symmetry_exact=True, sturm_exact=True, squarefree=False)"
    )
    assert rep.target_real_part == 1 and rep.roots == (1 - 1j, 1 + 1j)
    assert rep.max_deviation == 0.0 and rep.symmetry_exact and rep.sturm_exact
    assert rep.squarefree and not double.squarefree
    assert hash(rep) == hash(verify_line(RatPoly((2, -2, 1)), 1))
    assert len({rep, double, verify_line(RatPoly((2, -2, 1)), 1)}) == 2
    with pytest.raises(AttributeError):
        rep.squarefree = False

