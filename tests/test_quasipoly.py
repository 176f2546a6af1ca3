"""Quasi-polynomials, the shift operator S (against S-bar and the rotation
sigma of the test-side references), averaging."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import ALL_TYPES
from linial.ehrhart import ehrhart_quasi
from linial.eulerian import generalized_eulerian
from linial.quasipoly import (
    OperatorPoly,
    QuasiPoly,
    apply_S,
    sorted_divisors,
    tilde,
)
from linial.ratpoly import RatPoly
from linial.rootsystems import catalog
from reference_algebra import (
    compose_power,
    cross_type_relation_check,
    cyclotomic_type,
    divides,
    has_gcd_property,
    shift_S,
    shift_Sbar,
    sigma_pow,
)


def qp(*constituent_coeff_lists):
    return QuasiPoly(
        len(constituent_coeff_lists),
        tuple(RatPoly(tuple(Fraction(c) for c in cs)) for cs in constituent_coeff_lists),
    )


def random_quasipoly(rng, max_period=6, max_deg=4, span=9):
    n = rng.randint(1, max_period)
    return QuasiPoly(
        n,
        tuple(
            RatPoly(
                tuple(
                    Fraction(rng.randint(-span, span))
                    for _ in range(rng.randint(0, max_deg + 1))
                )
            )
            for _ in range(n)
        ),
    )


def test_eval_dispatches_on_residue():
    f = qp([0, 1], [5])  # t on even, 5 on odd
    assert f.eval(4) == 4
    assert f.eval(7) == 5
    assert f.eval(-2) == -2
    assert f.eval(-3) == 5


def test_from_poly_and_degree():
    p = RatPoly((1, 2, 3))
    f = QuasiPoly.from_poly(p)
    assert f.period == 1 and f.degree == 2
    assert QuasiPoly.zero().degree == float("-inf")


def test_equality_normalizes_period():
    f = qp([3], [1])
    g = QuasiPoly(4, (f.constituents + f.constituents))
    assert f == g
    assert g.period == 2
    const = qp([7], [7], [7])
    assert const.period == 1


def test_addition_aligns_periods():
    f = qp([1], [2])  # period 2
    g = qp([10], [20], [30])  # period 3
    s = f + g
    assert s.period == 6
    for t in range(12):
        assert s.eval(t) == f.eval(t) + g.eval(t)


def test_sigma_pow_rotates():
    f = qp([1], [2])
    assert sigma_pow(f, 1) == qp([2], [1])
    g = qp([1], [2], [3])
    assert sigma_pow(g, 2) == qp([2], [3], [1])
    assert sigma_pow(g, 3) == g
    assert sigma_pow(g, -1) == sigma_pow(g, 2)


def test_apply_S_is_argument_shift():
    rng = random.Random(101)
    for _ in range(40):
        f = random_quasipoly(rng)
        op = OperatorPoly(RatPoly((0, 1)), 1)  # the bare shift S
        g = apply_S(f, op)
        for t in range(-8, 17):
            assert g.eval(t) == f.eval(t - 1), (f, t)


def test_apply_S_general_operator_pointwise():
    rng = random.Random(102)
    for _ in range(40):
        f = random_quasipoly(rng)
        m = rng.randint(1, 4)
        coeffs = RatPoly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))))
        g = apply_S(f, OperatorPoly(coeffs, m))
        for t in range(-6, 13):
            want = sum(c * f.eval(t - m * k) for k, c in enumerate(coeffs.coeffs))
            assert g.eval(t) == want


@pytest.mark.parametrize("label", ALL_TYPES)
def test_apply_matches_shift_reference_alcove(label):
    # the moment kernel against literal Taylor shifts, on every L_Phi, for
    # R_Phi(S^(n+1)) and for the block factors (1/b) [b]_{S^s}
    info = catalog(label)
    L = ehrhart_quasi(info)
    rho = info.period_rho
    ops = [OperatorPoly(generalized_eulerian(info), n + 1) for n in sorted({0, 1, rho})]
    ops += [
        OperatorPoly(cyclotomic_type(b).scale(Fraction(1, b)), s)
        for b in (2, 3)
        for s in sorted(set(info.marks))
    ]
    for op in ops:
        assert_same_quasipoly(apply_S(L, op), shift_S(L, op))


def test_apply_matches_shift_reference_random():
    rng = random.Random(112)
    for _ in range(60):
        f = random_quasipoly(rng)
        m = rng.randint(1, 5)
        coeffs = RatPoly(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))
        )
        op = OperatorPoly(coeffs, m)
        assert_same_quasipoly(apply_S(f, op), shift_S(f, op))


def test_S_equals_Sbar_after_rotation():
    # the paper's S = Sbar sigma, on single shifts
    rng = random.Random(103)
    op = OperatorPoly(RatPoly((0, 1)), 1)
    for _ in range(30):
        f = random_quasipoly(rng)
        assert apply_S(f, op) == shift_Sbar(sigma_pow(f, 1), op)


def test_S_is_Sbar_on_the_main_theorem_operand():
    # Sbar^N = S^N on f whenever f's period divides N.  For every divisor g of
    # rho take N = g, so that gcd(N, rho) = g: R_Phi(S^N) on tilde(L, g), the
    # main theorem's operand, against R_Phi(Sbar^N) by Taylor shifts
    for label in ALL_TYPES:
        info = catalog(label)
        L, R = ehrhart_quasi(info), generalized_eulerian(info)
        for g in sorted_divisors(info.period_rho):
            avg, op = tilde(L, g), OperatorPoly(R, g)
            assert_same_quasipoly(apply_S(avg, op), shift_Sbar(avg, op))


def test_S_is_Sbar_when_the_period_divides_the_stride():
    rng = random.Random(115)
    for _ in range(60):
        f = random_quasipoly(rng)
        m = f.period * rng.randint(1, 3)
        coeffs = RatPoly(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))
        )
        op = OperatorPoly(coeffs, m)
        assert_same_quasipoly(apply_S(f, op), shift_Sbar(f, op))


def test_operator_linearity():
    rng = random.Random(104)
    for _ in range(25):
        f = random_quasipoly(rng, max_period=4)
        g = random_quasipoly(rng, max_period=4)
        m = rng.randint(1, 3)
        coeffs = RatPoly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))))
        op = OperatorPoly(coeffs, m)
        a = Fraction(rng.randint(-3, 3))
        lhs = apply_S(f.scale(a) + g, op)
        rhs = apply_S(f, op).scale(a) + apply_S(g, op)
        assert lhs == rhs


def operator_product(*factors):
    """Expand a product of operator factors ``(p_i, m_i) == p_i(S^(m_i))``
    into a single stride-1 OperatorPoly."""
    acc = RatPoly.one()
    for p, m in factors:
        acc = acc * compose_power(p, m)
    return OperatorPoly(acc, 1)


def test_operator_product_expands():
    # (1 - S)(1 + S) = 1 - S^2
    one_minus = RatPoly((1, -1))
    one_plus = RatPoly((1, 1))
    combined = operator_product((one_minus, 1), (one_plus, 1))
    assert combined.stride == 1
    assert combined.coeffs == RatPoly((1, 0, -1))
    # stride folding: [2]_{S^3} = 1 + S^3
    expanded = operator_product((cyclotomic_type(2), 3))
    assert expanded.coeffs == RatPoly((1, 0, 0, 1))


def test_difference_operator_kills_polynomials():
    rng = random.Random(105)
    for _ in range(20):
        deg = rng.randint(0, 5)
        p = RatPoly(tuple(Fraction(rng.randint(-9, 9)) for _ in range(deg)) + (Fraction(1),))
        f = QuasiPoly.from_poly(p)
        op = operator_product(*[(RatPoly((1, -1)), 1)] * (int(p.degree) + 1))
        assert apply_S(f, op) == QuasiPoly.zero()


def test_annihilation_iff_difference_power_divides():
    # for period-1 f of degree ell: g(S) f = 0  <=>  (1-S)^(ell+1) | g
    rng = random.Random(106)
    one_minus_t = RatPoly((1, -1))
    for _ in range(40):
        ell = rng.randint(0, 3)
        f = QuasiPoly.from_poly(
            RatPoly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(ell)) + (Fraction(1),))
        )
        g = RatPoly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))))
        if rng.random() < 0.5:
            g = g * one_minus_t ** (ell + 1)
        if g.is_zero:
            continue
        killed = apply_S(f, OperatorPoly(g, 1)) == QuasiPoly.zero()
        ok, _ = divides(one_minus_t ** (ell + 1), g)
        assert killed == ok


def test_tilde_basic():
    f = qp([0, 1], [5])
    avg = tilde(f, 1)
    assert avg.period == 1
    # slot-average of (t, 5)
    for t in range(6):
        assert avg.eval(t) == Fraction(t + 5, 2)


def test_tilde_gcd_and_shift_invariance():
    rng = random.Random(107)
    for _ in range(60):
        f = random_quasipoly(rng)
        n = f.period
        k = rng.randint(1, 2 * n + 3)
        assert tilde(f, k) == tilde(f, gcd(k, n))
        assert tilde(f, k) == tilde(f, k + n)
        assert tilde(f, k).period in [
            d for d in range(1, n + 1) if gcd(k, n) % d == 0
        ]


def orbit_average(f, k):
    """tilde by its definition: n^2 slot additions over the sigma^k orbit."""
    n = f.period
    cs = f.constituents
    inv = Fraction(1, n)
    slots = []
    for r in range(n):
        acc = RatPoly.zero()
        for i in range(n):
            acc = acc + cs[(r - i * k) % n]
        slots.append(acc.scale(inv))
    return QuasiPoly(n, tuple(slots))


def assert_same_quasipoly(a, b):
    # same function and the same minimal-period representation
    assert a.period == b.period and a.constituents == b.constituents


def test_tilde_matches_orbit_average_random():
    rng = random.Random(111)
    for _ in range(80):
        f = random_quasipoly(rng)
        n = f.period
        for k in (0, 1, rng.randint(-2 * n, -1), rng.randint(2, 2 * n + 3), n, n + 1):
            assert_same_quasipoly(tilde(f, k), orbit_average(f, k))


def test_tilde_matches_orbit_average_alcove():
    for label in ALL_TYPES:
        info = catalog(label)
        L = ehrhart_quasi(info)
        rho = info.period_rho
        for k in sorted_divisors(rho) + [rho + 1]:
            assert_same_quasipoly(tilde(L, k), orbit_average(L, k))


def test_tilde_full_period_is_identity():
    rng = random.Random(108)
    for _ in range(20):
        f = random_quasipoly(rng)
        n = f.period
        assert tilde(f, n) == f


def test_tilde_linear():
    rng = random.Random(109)
    for _ in range(40):
        f = random_quasipoly(rng, max_period=4)
        g = random_quasipoly(rng, max_period=4)
        k = rng.randint(1, 6)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        assert tilde(f.scale(a) + g.scale(b), k) == tilde(f, k).scale(a) + tilde(g, k).scale(b)


def test_averaging_transfer():
    # [c]_{S^m}^(ell+1) g(S^m) f  ==  [c]_{Sbar^m}^(ell+1) g(Sbar^m) tilde(f, gcd(m, n))
    # whenever c is a multiple of n / gcd(m, n); Sbar^m = S^m on the right,
    # whose period divides m
    rng = random.Random(110)
    done = 0
    while done < 40:
        f = random_quasipoly(rng, max_period=5, max_deg=3)
        n = f.period
        ell = int(f.degree) if f.degree != float("-inf") else 0
        m = rng.randint(1, 6)
        c = (n // gcd(m, n)) * rng.randint(1, 3)
        g = RatPoly(tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))))
        block = cyclotomic_type(c) ** (ell + 1) * g
        lhs = apply_S(f, OperatorPoly(block, m))
        rhs = apply_S(tilde(f, gcd(m, n)), OperatorPoly(block, m))
        for t in range(0, 4 * n + 1):
            assert lhs.eval(t) == rhs.eval(t), (f, m, c)
        done += 1


def test_gcd_property_detector():
    # constituents agreeing on gcd-linked slots
    f = qp([1, 2], [3], [1, 2], [3])  # slots 0,2 equal; 1,3 equal
    assert has_gcd_property(f)
    g = qp([1], [2], [3], [4])
    assert not has_gcd_property(g)


def assert_canonical(f):
    widths = {len(row) for row in f.rows}
    assert len(f.rows) == f.period and len(widths) == 1
    assert f.den > 0
    assert gcd(f.den, *(v for row in f.rows for v in row)) == 1
    width = widths.pop()
    assert width == 0 or any(row[-1] for row in f.rows)
    if width == 0:
        assert f.den == 1
    # the period is minimal: no proper divisor repeats the rows
    n = f.period
    assert not any(f.rows[d:] == f.rows[: n - d] for d in sorted_divisors(n)[:-1])


def assert_same_form(a, b):
    assert (a.period, a.den, a.rows) == (b.period, b.den, b.rows)
    assert a == b and hash(a) == hash(b)


def test_canonical_form_invariants():
    rng = random.Random(113)
    for _ in range(60):
        f = random_quasipoly(rng).scale(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        g = random_quasipoly(rng)
        # (f + g) - g is f, built at the lcm of the two periods
        for h in (f, g, f + g, f - g, f - f, (f + g) - g, tilde(f, rng.randint(0, 6))):
            assert_canonical(h)
        op = OperatorPoly(RatPoly((Fraction(1, 3), Fraction(-2, 5))), rng.randint(1, 3))
        assert_canonical(apply_S(f, op))


def test_canonical_form_same_function_same_form():
    f = qp([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 6)])
    # built from constituents with other denominators that cancel
    halves = qp([Fraction(1, 4), Fraction(1, 6)], [Fraction(1, 12)])
    assert_same_form(halves + halves, f)
    assert_same_form(f.scale(Fraction(7, 3)).scale(Fraction(3, 7)), f)
    # a higher-degree term that cancels leaves no zero top column behind
    top = qp([0, 0, 0, Fraction(5, 7)], [Fraction(1, 5)])
    padded = (f + top) - top
    assert_canonical(padded)
    assert_same_form(padded, f)
    assert padded.rows == ((3, 2), (1, 0)) and padded.den == 6
    # the same slots at a multiple of the period
    doubled = QuasiPoly(4, f.constituents * 2)
    assert doubled.period == 2
    assert_same_form(doubled, f)
    assert_same_form(QuasiPoly(6, f.constituents * 3), f)


def test_canonical_form_zero_and_negative_scales():
    z = QuasiPoly.zero()
    assert (z.period, z.den, z.rows) == (1, 1, ((),))
    assert z.degree == float("-inf") and z.eval(3) == 0
    assert z.constituents == (RatPoly.zero(),)
    for k in (1, 2, 5):
        assert_same_form(QuasiPoly(k, (RatPoly.zero(),) * k), z)
    f = qp([Fraction(-3, 4), 2], [Fraction(1, 6)])
    assert_same_form(f - f, QuasiPoly.zero())
    assert_same_form(f.scale(0), QuasiPoly.zero())
    for c in (-1, -3, Fraction(-2, 5)):
        g = f.scale(c)
        assert_canonical(g)
        assert all(g.eval(t) == c * f.eval(t) for t in range(-4, 5))
        assert_same_form(g.scale(1 / Fraction(c)), f)
    assert f.scale(-1).rows == tuple(tuple(-v for v in row) for row in f.rows)
    assert f.scale(-1).den == f.den > 0


def test_constituents_roundtrip_through_json():
    # the "p/q" strings that ``linial decompose --format json`` writes per
    # slot, parsed back with Fraction, give the same canonical form
    rng = random.Random(114)
    for _ in range(30):
        f = random_quasipoly(rng).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 9)))
        texts = [[str(c) for c in p.coeffs] for p in f.constituents]
        g = QuasiPoly(f.period, (RatPoly(Fraction(c) for c in cs) for cs in texts))
        assert g.constituents == f.constituents
        assert (g.period, g.den, g.rows) == (f.period, f.den, f.rows)
    assert str(qp([Fraction(1, 3), 2]).constituents[0].coeffs[0]) == "1/3"


def test_operator_poly_validation():
    # the record holds any stride; apply_S, its one reader, refuses m < 1,
    # and so does cross_type_relation_check, which goes through apply_S
    op = OperatorPoly(RatPoly.one(), 0)
    with pytest.raises(ValueError, match="stride"):
        apply_S(ehrhart_quasi(catalog("A2")), op)
    with pytest.raises(ValueError, match="stride"):
        cross_type_relation_check(catalog("A2"), [op], catalog("A2"))


def test_operator_poly_record():
    # a (coeffs, stride) record: equality, hash and repr read the two
    # fields, and, as for any NamedTuple, it equals the plain tuple of them;
    # the record is immutable
    a = OperatorPoly(RatPoly((1, Fraction(-2, 3))), 3)
    b = OperatorPoly(RatPoly((1, Fraction(-2, 3))), stride=3)
    assert a == b and hash(a) == hash(b)
    assert a != OperatorPoly(RatPoly((1, Fraction(-2, 3))), 2)
    assert a != OperatorPoly(RatPoly((1, Fraction(2, 3))), 3)
    assert a == (a.coeffs, a.stride)
    assert len({a, b, OperatorPoly(RatPoly((0, 1)))}) == 2
    assert repr(a) == "OperatorPoly(coeffs=RatPoly(-2/3t + 1), stride=3)"
    assert repr(OperatorPoly(RatPoly((0, 1)))) == "OperatorPoly(coeffs=RatPoly(t), stride=1)"
    for name in ("coeffs", "stride", "weights", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)

