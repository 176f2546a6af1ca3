"""Numeric root finding and the exact vertical-line certificate."""

from fractions import Fraction

import pytest

from linial.ratpoly import RatPoly
from linial.rootline import find_roots, verify_line
from linial.rootsystems import catalog
from linial.arrangements import char_poly

from conftest import ALL_TYPES


def test_linear():
    assert find_roots(RatPoly((-3, 2))) == [complex(Fraction(3, 2))]


def test_simple_real_roots():
    p = RatPoly((-6, 11, -6, 1))  # (t-1)(t-2)(t-3)
    roots = find_roots(p)
    assert len(roots) == 3
    for z, want in zip(sorted(roots, key=lambda w: w.real), (1, 2, 3)):
        assert abs(z - want) < 1e-12


def test_imaginary_pair():
    roots = find_roots(RatPoly((1, 0, 1)))
    assert abs(roots[0] + 1j) < 1e-14
    assert abs(roots[1] - 1j) < 1e-14


def test_deterministic_ordering():
    p = RatPoly((-6, 11, -6, 1)) * RatPoly((1, 0, 1))
    assert find_roots(p) == find_roots(p)


def test_multiplicities():
    # t^3 (t - 1): zero root three times, exactly
    roots = find_roots(RatPoly((0, 0, 0, -1, 1)))
    assert roots.count(0j) == 3
    assert abs(roots[-1] - 1) < 1e-12
    # (t - 2)^2 via the squarefree split
    roots = find_roots(RatPoly((4, -4, 1)))
    assert len(roots) == 2
    assert all(abs(z - 2) < 1e-9 for z in roots)


def test_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(RatPoly.one())
    with pytest.raises(ValueError):
        find_roots(RatPoly.zero())


def test_big_coefficients():
    # large-scale roots still come back accurately
    p = RatPoly((10**12 + 1, -(2 * 10**6 + 1), 1))  # ~(t - 1e6)^2 + small
    roots = find_roots(p)
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
