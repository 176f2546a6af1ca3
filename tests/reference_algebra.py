"""Test-side reference algebra, kept out of the package: exact division and
gcd over Q[t], the cyclic slot rotation sigma, and the shift operators S and
S-bar by their definitions, through literal Taylor shifts of the constituents.

The package applies every shift operator through one moment kernel
(``quasipoly.apply_S``); these references compute the same things straight
from the definitions, so the tests can compare the two.
"""

import math
from fractions import Fraction

from linial.quasipoly import QuasiPoly
from linial.ratpoly import RatPoly

#: The variable ``t`` itself, for building polynomials expression-style.
X = RatPoly((0, 1))


def poly_divmod(f: RatPoly, g: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Exact division with remainder: ``f = q*g + r`` with deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dg = len(g.coeffs) - 1
    lead = g.coeffs[-1]
    q = [Fraction(0)] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = c / lead
        q[i - dg] = factor
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] -= factor * gc
    return RatPoly(q), RatPoly(rem)


def divides(d: RatPoly, g: RatPoly) -> tuple[bool, RatPoly | None]:
    """Whether ``d`` divides ``g`` exactly; quotient returned on success."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = poly_divmod(g, d)
    if r.is_zero:
        return True, q
    return False, None


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q (a nonzero constant gcd is returned as 1)."""
    a, b = f, g
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.scale(1 / a.leading)


def sigma_pow(f: QuasiPoly, k: int) -> QuasiPoly:
    """The cyclic slot rotation sigma = (1 ... n), k times, at the minimal
    period: new slot r holds old constituent (r - k) mod n."""
    n, cs = f.period, f.constituents
    return QuasiPoly(n, (cs[(r - k) % n] for r in range(n)))


def _taylor_shift(row, s: int) -> list[int]:
    """The coefficients of p(t + s) for the integer polynomial p with
    coefficients ``row`` (lowest degree first), by Horner's rule."""
    out: list[int] = []
    for c in reversed(row):
        # out <- out * (t + s) + c
        out = [u + s * v for u, v in zip([0] + out, out + [0])]
        out[0] += c
    return out


def _shifted_sums(f: QuasiPoly, op, source) -> QuasiPoly:
    """sum_k a_k (slot source(r, m k))(t - m k) at each slot r of f's minimal
    period n, each term a Taylor shift of one constituent's integer row."""
    n, rows, cs = f.period, f.rows, op.coeffs.coeffs
    den = math.lcm(*(a.denominator for a in cs), 1)
    slots = []
    for r in range(n):
        acc = [0] * len(rows[0])
        for k, a in enumerate(cs):
            s = op.stride * k
            if a:
                w = a.numerator * (den // a.denominator)
                shifted = _taylor_shift(rows[source(r, s) % n], -s)
                acc = [u + w * v for u, v in zip(acc, shifted)]
        slots.append(RatPoly(Fraction(v, f.den * den) for v in acc))
    return QuasiPoly(n, slots)


def shift_S(f: QuasiPoly, op) -> QuasiPoly:
    """``sum_k a_k S^(m k)`` by its definition: slot r is
    sum_k a_k (slot (r - m k) mod n)(t - m k)."""
    return _shifted_sums(f, op, lambda r, s: r - s)


def shift_Sbar(f: QuasiPoly, op) -> QuasiPoly:
    """``sum_k a_k Sbar^(m k)``, which shifts each slot's argument without
    rotating slots: slot r is sum_k a_k (slot r)(t - m k)."""
    return _shifted_sums(f, op, lambda r, s: r)
