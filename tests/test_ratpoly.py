import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linial.ratpoly import RatPoly, render_poly
from linial.rootline import _shift_integers
from reference_algebra import (
    X,
    compose_power,
    congruent_mod_power,
    cyclotomic_type,
    derivative,
    divides,
    moment_divisibility,
    poly_divmod,
    poly_gcd,
    reference_shift_argument,
)

small_ints = st.integers(min_value=-9, max_value=9)
int_polys = st.lists(small_ints, min_size=0, max_size=8).map(
    lambda cs: RatPoly(tuple(Fraction(c) for c in cs))
)


def test_canonicalization():
    p = RatPoly((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert RatPoly(()).is_zero
    assert RatPoly((0, 0)).is_zero
    assert RatPoly(()).degree == float("-inf")


def test_zero_one_monomial():
    assert RatPoly.zero().is_zero
    assert RatPoly.one().coeffs == (Fraction(1),)
    m = RatPoly.monomial(3, 5)
    assert m.coeffs == (0, 0, 0, 5)
    assert m.degree == 3


def test_arithmetic_known_values():
    p = RatPoly((1, 1))  # 1 + t
    q = RatPoly((-1, 1))  # -1 + t
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).is_zero
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert X(7) == 7


def test_eval_matches_horner():
    rng = random.Random(7)
    for _ in range(50):
        cs = tuple(Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(0, 7)))
        p = RatPoly(cs)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        direct = sum(c * x**k for k, c in enumerate(cs))
        assert p(x) == direct


def test_cyclotomic_type_values():
    assert cyclotomic_type(0).is_zero
    assert cyclotomic_type(1) == RatPoly.one()
    assert cyclotomic_type(3).coeffs == (1, 1, 1)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_cyclotomic_type_multiplicative(a, b):
    # [ab]_t = [a]_t * [b]_{t^a}
    lhs = cyclotomic_type(a * b)
    rhs = cyclotomic_type(a) * compose_power(cyclotomic_type(b), a)
    assert lhs == rhs


def _shifted(p, a):
    """p(t + a) as R / E from the integer Taylor shift (R, E)."""
    ints, den = _shift_integers(p, a)
    return RatPoly(Fraction(q, den) for q in ints)


@given(int_polys, small_ints)
def test_shift_argument_pointwise(p, a):
    shifted = _shifted(p, Fraction(a))
    for x in range(-4, 5):
        assert shifted(Fraction(x)) == p(Fraction(x + a))


def test_shift_argument_matches_reference():
    # the integer Taylor shift against Horner on Fractions, seeded: the zero
    # polynomial, constants and degrees up to 9 with rational coefficients,
    # shifted by 0, by integers of either sign and by non-integers
    rng = random.Random(21)
    shifts = [0, 1, -1, 7, -30, Fraction(1, 2), Fraction(-7, 3), Fraction(120, 7), Fraction(-1, 60)]
    polys = [RatPoly(), RatPoly((5,)), RatPoly((Fraction(-3, 4),))]
    for _ in range(60):
        polys.append(
            RatPoly(
                Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                for _ in range(rng.randint(1, 10))
            )
        )
    shifts += [Fraction(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(20)]
    for p in polys:
        for a in shifts:
            assert _shifted(p, a) == reference_shift_argument(p, a), (p, a)
    assert _shifted(RatPoly((5,)), Fraction(-7, 3)) == RatPoly((5,))
    assert _shifted(RatPoly(), 4).is_zero


def test_compose_power():
    p = RatPoly((1, 2, 3))  # 1 + 2t + 3t^2
    q = compose_power(p, 3)
    assert q.coeffs == (1, 0, 0, 2, 0, 0, 3)
    for x in range(-3, 4):
        assert q(Fraction(x)) == p(Fraction(x**3))


@given(int_polys, int_polys)
def test_divmod_invariant(f, g):
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(f, g)
        return
    q, r = poly_divmod(f, g)
    assert f == q * g + r
    assert r.is_zero or r.degree < g.degree


def test_divides():
    f = RatPoly((-1, 0, 1))  # t^2 - 1
    d = RatPoly((1, 1))
    ok, q = divides(d, f)
    assert ok and q * d == f
    ok, q = divides(RatPoly((2, 1)), f)
    assert not ok and q is None
    with pytest.raises(ZeroDivisionError):
        divides(RatPoly.zero(), f)


@given(int_polys, int_polys, int_polys)
@settings(max_examples=60)
def test_gcd_contains_common_factor(f, g, h):
    a, b = f * h, g * h
    d = poly_gcd(a, b)
    if a.is_zero and b.is_zero:
        assert d.is_zero
        return
    if not h.is_zero:
        ok, _ = divides(h, d)  # h divides gcd(f h, g h)
        assert ok
    assert d.leading == 1  # monic normalization


def test_derivative():
    p = RatPoly((5, -3, 0, 2))  # 5 - 3t + 2t^3
    assert derivative(p).coeffs == (-3, 0, 6)
    assert derivative(RatPoly.one()).is_zero
    f = RatPoly((1, 1))
    g = RatPoly((0, 0, 1))
    assert derivative(f * g) == derivative(f) * g + f * derivative(g)


def _congruent_by_division(g1, g2, k):
    pow_factor = RatPoly((1, -1)) ** k  # (1 - t)^k
    ok, _ = divides(pow_factor, g1 - g2) if not (g1 - g2).is_zero else (True, None)
    return ok or (g1 - g2).is_zero


@given(int_polys, int_polys, st.integers(min_value=1, max_value=4))
@settings(max_examples=80)
def test_congruent_mod_power_matches_division(g1, g2, k):
    assert congruent_mod_power(g1, g2, k) == _congruent_by_division(g1, g2, k)


def test_congruent_mod_power_examples():
    one = RatPoly.one()
    t3 = RatPoly.monomial(3)
    # t^3 === 1 mod (1 - t) but not mod (1 - t)^2
    assert congruent_mod_power(t3, one, 1)
    assert not congruent_mod_power(t3, one, 2)


@given(int_polys, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4))
@settings(max_examples=120)
def test_moment_divisibility_iff_division(g, n, ell):
    want, _ = (
        divides(cyclotomic_type(n) ** (ell + 1), g)
        if not g.is_zero
        else (True, None)
    )
    assert moment_divisibility(g, n, ell) == want


def test_render_poly():
    assert render_poly(RatPoly((3, -3, 1))) == "t^2 - 3t + 3"
    assert render_poly(RatPoly.zero()) == "0"
    assert render_poly(RatPoly((0, 1))) == "t"
    assert render_poly(RatPoly((-1,))) == "-1"
