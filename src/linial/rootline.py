"""Verify that all roots of a polynomial lie on a vertical line Re z = a.

Both routes start from one exact shift, r(s) = p(s + a), scaled to
primitive integers, and one integer routine: the Sturm chain of signed,
content-stripped pseudo-remainders (Collins 1967; Brown and Traub 1971).
Its last entry is gcd(r, r') up to a constant, so chains split r by exact
division into squarefree parts q_1 = r / gcd(r, r'), then the same for
the gcd, and so on.

numeric — all roots of the squarefree parts by Aberth-Ehrlich iteration
in pure Python, shifted back by a.  For a polynomial symmetric about a,
such as a characteristic polynomial about nh/2, a is the centroid of every
part, so the iteration runs on polynomials whose roots sit on the
imaginary axis, and their real parts carry only the rounding error of the
centred coefficients.  The report carries the maximal relative deviation
|Re w| / max(1, |w|) over those centred roots w, taken before the shift by
a, whose own rounding would otherwise swamp it at large a; relative,
because the rounding error of a root grows with its modulus.  For any a
the report holds all the roots of p.  Coefficients, roots or an a beyond
the float range raise ValueError.

exact — all roots lie on Re z = a iff r(-s) = (-1)^deg r(s) AND r turns
into a real polynomial w(u) = i^(-deg) * r(iu) whose roots are all real.
The parity is an exact coefficient check.  The Sturm chain of w ends in
gcd(w, w'), so w has deg w - deg gcd(w, w') distinct roots, and its sign
variations at -inf minus those at +inf count the distinct real ones; the
roots are all real iff the two numbers agree.  Together these turn a
floating-point observation into an integer-arithmetic proof or refutation,
repeated roots included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .ratpoly import RatPoly, _integer_rows

__all__ = ["RootReport", "verify_line"]


class RootReport(NamedTuple):
    target_real_part: Fraction
    roots: tuple[complex, ...]
    max_deviation: float
    symmetry_exact: bool
    sturm_exact: bool
    squarefree: bool


def _primitive(cs: list[int]) -> list[int]:
    """The nonzero integer list ``cs`` divided by its content, the positive
    gcd of its entries, so the signs stay."""
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _shift_integers(p: RatPoly, a: Fraction | int) -> tuple[list[int], int]:
    """``(R, E)`` with p(t + a) = sum R_j t^j / E, E > 0, for p nonzero: with
    D p = sum P_k t^k in integers (``_integer_rows``), deg p = m and a = u/v
    (v > 0), v^m D p(s + u/v) = Q(v s) for Q(x) = sum P_k v^(m-k) (x + u)^k,
    built by Horner's rule on integers; so R_j = Q_j v^j and E = v^m D."""
    a = Fraction(a)
    u, v = a.numerator, a.denominator
    den, (P,) = _integer_rows([p.coeffs])
    out: list[int] = []
    for i, c in enumerate(reversed(P)):  # out <- out * (x + u) + P_k v^(m-k), k = m - i
        out = [x + u * y for x, y in zip([0] + out, out + [0])]
        out[0] += c * v**i
    return [q * v**j for j, q in enumerate(out)], den * v ** (len(P) - 1)


def _eliminate_top(r: list[int], m: int, c: int, g: list[int]) -> list[int]:
    """m * r - c * t^(deg r - deg g) * g, less its top coefficient, which
    the caller chooses m and c to cancel."""
    return [m * x - c * y for x, y in zip(r, [0] * (len(r) - len(g)) + g)][:-1]


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm chain of f (degree >= 1): f, f', then -rem of the previous two,
    each stripped to a primitive integer polynomial (a positive rescale,
    which keeps the chain's signs).  The last entry is gcd(f, f') up to a
    constant factor."""
    chain = [f, _primitive([k * c for k, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = a  # ends as prem(a, b) = lc(b)^(deg a - deg b + 1) * rem(a, b)
        for _ in range(len(a) - len(b) + 1):
            r = _eliminate_top(r, b[-1], r[-1], b)
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        # -rem has the sign of -prem unless lc(b)^(deg a - deg b + 1) < 0
        sign = -1 if b[-1] > 0 or (len(a) - len(b)) % 2 else 1
        chain.append([sign * c for c in _primitive(r)])
    return chain


def _squarefree_parts(r: list[int]) -> list[list[int]]:
    """q_1, q_2, ...: q_k has each root of r of multiplicity >= k once, so
    r is their product up to a constant, and squarefree iff q_1 is the
    only part."""
    parts = []
    while len(r) > 1:
        g = _sturm_chain(r)[-1]  # primitive, so r / g is integral
        q, rem = [], r
        for _ in range(len(r) - len(g) + 1):
            q.append(rem[-1] // g[-1])
            rem = _eliminate_top(rem, 1, q[-1], g)
        parts.append(q[::-1])
        r = g
    return parts


def _variations(signs: list[bool]) -> int:
    return sum(x != y for x, y in zip(signs, signs[1:]))


_FLOAT_RANGE = "numeric roots need values within the float range, |x| < 1.8e308"
_MAX_SWEEPS = 50  # the catalogued parts need at most 11
_TOL = 2.0**-50


def _float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ValueError(_FLOAT_RANGE)


def _aberth_roots(parts: list[list[int]]) -> list[complex]:
    """Roots of the parts by Aberth-Ehrlich iteration (Aberth 1973).

    A zero root is split off exactly.  The rest of a part q of degree d
    becomes monic floats c_k = q_k / q_d, scaled to y = z / R with
    R = max_k |c_k|^(1/(d-k)) by repeated division, so that each scaled
    coefficient has modulus at most 1 (a tiny one underflows instead of
    overflowing) and each root has |y| <= 2.  The d iterates start on the
    unit circle at fixed angles, and each stops once its Newton-Aberth step
    is at most 2^-50 of its modulus, or once the scaled part's value there
    is within d 2^-50 of the Horner rounding bound sum_k |b_k| |y|^k,
    below which the step is rounding noise.  Raises ArithmeticError if an
    iterate has not stopped within _MAX_SWEEPS sweeps.
    """
    roots = []
    for q in parts:
        if q[0] == 0:  # a squarefree part has at most one zero root
            roots.append(0j)
            q = q[1:]
        d = len(q) - 1
        if d == 0:
            continue
        c = [_float(Fraction(x, q[-1])) for x in q[:-1]]
        radius = max(abs(x) ** (1 / (d - k)) for k, x in enumerate(c))
        b = []
        for k, x in enumerate(c):
            for _ in range(d - k):
                x /= radius
            b.append(x)
        # the offset keeps the starts off both axes, where centred roots lie
        angles = [2 * math.pi * j / d + 0.4 for j in range(d)]
        ys = [complex(math.cos(t), math.sin(t)) for t in angles]
        moving = set(range(d))
        for _ in range(_MAX_SWEEPS):
            for j in sorted(moving):
                y, size = ys[j], abs(ys[j])
                p, dp, bound = 1.0, 0.0, 1.0
                for x in reversed(b):
                    dp = dp * y + p
                    p = p * y + x
                    bound = bound * size + abs(x)
                repel = sum(1 / (y - z) for k, z in enumerate(ys) if k != j)
                step = p / (dp - p * repel)
                ys[j] = y - step
                if abs(step) <= _TOL * size or abs(p) <= _TOL * d * bound:
                    moving.discard(j)
            if not moving:
                break
        else:
            raise ArithmeticError(f"Aberth iteration did not converge in {_MAX_SWEEPS} sweeps")
        roots += [radius * y for y in ys]
    return roots


def verify_line(p: RatPoly, a: Fraction | int) -> RootReport:
    """Check that every root of p lies on Re z = a, numerically and exactly."""
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    a = Fraction(a)
    r = _primitive(_shift_integers(p, a)[0])  # r(s) = p(s + a), times E > 0
    parts = _squarefree_parts(r)
    centred = _aberth_roots(parts)
    shifted = [w + _float(a) for w in centred]
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in shifted):
        raise ValueError(_FLOAT_RANGE)
    roots = tuple(sorted(shifted, key=lambda z: (z.imag, z.real)))
    max_dev = max(abs(w.real) / max(1.0, abs(w)) for w in centred)

    deg = len(r) - 1
    symmetry = all(c == 0 for k, c in enumerate(r) if (k - deg) % 2)
    sturm_ok = False
    if symmetry:  # so w(u) = i^(-deg) r(iu) has integer coefficients
        w = [c * (-1) ** ((deg - k) // 2) for k, c in enumerate(r)]
        chain = _sturm_chain(w)
        at_plus = [f[-1] > 0 for f in chain]
        at_minus = [s != (len(f) % 2 == 0) for s, f in zip(at_plus, chain)]  # odd degree flips
        sturm_ok = _variations(at_minus) - _variations(at_plus) == len(w) - len(chain[-1])
    return RootReport(
        target_real_part=a,
        roots=roots,
        max_deviation=max_dev,
        symmetry_exact=symmetry,
        sturm_exact=sturm_ok,
        squarefree=len(parts) == 1,
    )
