"""Quasi-polynomials: periods, constituents, tilde averaging, and the
shift operator S.

A quasi-polynomial of period ``n`` has one polynomial constituent per
residue class mod n; slot ``r`` answers for arguments ``t = r (mod n)``.
(One-based constituent numbering found in the literature maps onto this as
"constituent j" <-> slot ``j mod n``, so the n-th constituent is slot 0.)

Each is stored in one canonical integer form, slot r = ``rows[r] / den``:
the period is minimal (no proper divisor d has rows[d:] == rows[:n - d]),
den > 0 and coprime to the entries, rows of one width without an all-zero
top column.  So one function has one form, and equality is equality of
forms.  Every operation works on these int tuples; ``constituents``
derives :class:`RatPoly` slots only for callers that ask.

The shift operator acts by ``(S f)(t) = f(t - 1)``; an ``OperatorPoly``
is the record (coeffs a_k, stride m) of ``sum_k a_k S^(m*k)``, which
``apply_S`` applies exactly, on integer weights.  One pass of
the same kernel applies a product of block sums (1/m) [m]_{S^s} whose
strides the operand's period divides, its moments from the cumulants of
a sum of uniform shifts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, zip_longest
from operator import add, mul
from typing import Iterable, NamedTuple

from .ratpoly import RatPoly, _integer_rows

__all__ = [
    "QuasiPoly",
    "OperatorPoly",
    "tilde",
    "apply_S",
]


class QuasiPoly:
    """Immutable quasi-polynomial: ``period`` slots, slot r = rows[r] / den."""

    __slots__ = ("period", "den", "rows")

    period: int
    den: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, period: int, constituents: Iterable[RatPoly]):
        cs = tuple(constituents)
        if period < 1:
            raise ValueError("period must be >= 1")
        if len(cs) != period:
            raise ValueError(f"expected {period} constituents, got {len(cs)}")
        f = _make(period, *_integer_rows([p.coeffs for p in cs]))
        _set(self, f.period, f.den, f.rows)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("QuasiPoly is immutable")

    @classmethod
    def from_poly(cls, p: RatPoly) -> "QuasiPoly":
        """Wrap an ordinary polynomial as a period-1 quasi-polynomial."""
        return cls(1, (p,))

    @classmethod
    def zero(cls) -> "QuasiPoly":
        return _raw(1, 1, ((),))

    @property
    def constituents(self) -> tuple[RatPoly, ...]:
        """The slots as :class:`RatPoly`, derived from ``(den, rows)``."""
        den = self.den
        return tuple(RatPoly(Fraction(c, den) for c in row) for row in self.rows)

    def eval(self, t: int) -> Fraction:
        """Value at the integer ``t`` (constituent chosen by ``t mod period``)."""
        acc = 0
        for c in reversed(self.rows[t % self.period]):
            acc = acc * t + c
        return Fraction(acc, self.den)

    @property
    def degree(self) -> int | float:
        width = len(self.rows[0])
        return width - 1 if width else float("-inf")

    def scale(self, c: Fraction | int) -> "QuasiPoly":
        num, den = c.numerator, c.denominator
        return _make(self.period, self.den * den, [[num * v for v in row] for row in self.rows])

    def __add__(self, other: "QuasiPoly") -> "QuasiPoly":
        n = math.lcm(self.period, other.period)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        pairs = ((self.rows[r % self.period], other.rows[r % other.period]) for r in range(n))
        rows = [[a * u + b * v for u, v in zip_longest(x, y, fillvalue=0)] for x, y in pairs]
        return _make(n, den, rows)

    def __sub__(self, other: "QuasiPoly") -> "QuasiPoly":
        return self + other.scale(-1)

    def __eq__(self, other: object) -> bool:
        """Equality as functions, which is equality of canonical forms."""
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        return (self.period, self.den, self.rows) == (other.period, other.den, other.rows)

    def __hash__(self) -> int:
        return hash((self.period, self.den, self.rows))

    def __repr__(self) -> str:
        return f"QuasiPoly(period={self.period}, constituents={list(self.constituents)!r})"


def _set(f, *form):
    for name, value in zip(f.__slots__, form):
        object.__setattr__(f, name, value)
    return f


def _raw(period: int, den: int, rows) -> QuasiPoly:
    """A QuasiPoly from a form that is canonical already."""
    return _set(object.__new__(QuasiPoly), period, den, rows)


def _make(period: int, den: int, rows) -> QuasiPoly:
    """A QuasiPoly from any ``rows / den``: brought to rows of one width
    without an all-zero top column, den > 0 and coprime to the entries, and
    cut to the smallest divisor d of ``period`` with
    rows[d:] == rows[:period - d], the minimal period."""
    width = 0
    for row in rows:
        k = len(row)
        while k > width and not row[k - 1]:
            k -= 1
        width = max(width, k)
    if not width:
        return QuasiPoly.zero()
    rows = [list(row[:width]) + [0] * (width - len(row)) for row in rows]
    g = math.gcd(den, *chain.from_iterable(rows)) * (1 if den > 0 else -1)
    rows = tuple(tuple(v // g for v in row) for row in rows)
    d = next(d for d in sorted_divisors(period) if rows[d:] == rows[: period - d])
    return _raw(d, den // g, rows[:d])


class OperatorPoly(NamedTuple):
    """``sum_k coeffs[k] * S^(stride*k)``, a polynomial in a power of S."""

    coeffs: RatPoly
    stride: int = 1


def sorted_divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def tilde(f: QuasiPoly, k: int) -> QuasiPoly:
    """Average of ``f`` over the orbit of sigma^k, sigma the cyclic slot
    rotation, taken at f's period n, which is minimal.

    The orbit of slot r is the coset r + gZ/n with g = gcd(k, n), so slot r
    of the average is (g/n) * sum of the constituents at slots j = r (mod g):
    g column sums of n/g rows, over the denominator den * n/g.  The result
    has a period dividing g.
    """
    n = f.period
    g = math.gcd(k, n)
    rows = [[sum(col) for col in zip(*f.rows[r::g])] for r in range(g)]
    return _make(g, f.den * (n // g), rows)


# ---------------------------------------------------------------------------
# Operator application: the hot path of the package.  An operator
# sum_k a_k S^(N k) acts on a source row c as
#
#     sum_k a_k c(t - N k) = sum_p t^p sum_e C(p+e, e) c_{p+e} N^e m_e,
#     m_e = sum_k a_k (-k)^e,
#
# and in the class s = N mod n, n the operand's period, term k reads slot
# s k mod n back, so the image is a polynomial in N per class: its *family*
# (n, den, rows), rows[r][p][e] the coefficient of t^p N^e in slot r.
# ``_moment_table`` takes the m_e per class d = s k mod n over one integer
# denominator; ``_operator_rows`` weights each source row's columns once
# and builds the family in one integer pass per (slot, class) over the
# flattened (p, e) terms; ``_operator_family`` is the two for a coefficient
# polynomial, cleared into integer weights; ``_evaluate`` sums a family
# against the powers of one N into the canonical ``QuasiPoly``, and
# ``apply_S`` evaluates at N = stride.  ``_apply_block_product`` applies a
# product of block sums at N = 1 from one class-0 table: the moments of a
# sum of uniform shifts, from its cumulants, in which the strides enter by
# their power sums.


def _moment_table(weights, modulus: int, width: int, step: int) -> dict[int, list[int]]:
    """``{d: [m_0, ..., m_(width-1)]}``, m_e = sum a_k (-k)^e over the
    integer weights a_k (k the index) with step * k = d (mod ``modulus``)."""
    table: dict[int, list[int]] = {}
    for k, a in enumerate(weights):
        if a:
            mom = table.setdefault(step * k % modulus, [0] * width)
            for e in range(width):
                mom[e] += a
                a *= -k
    return table


def _operator_rows(f: QuasiPoly, table: dict[int, list[int]], den: int):
    """The family of the operator with moment table ``table`` over ``den``
    applied to ``f``, at f's period n, which is minimal."""
    n, width = f.period, len(f.rows[0])
    # the (p, e) terms with p + e < width, flattened p-major
    pe = [(p, e) for p in range(width) for e in range(width - p)]
    bounds = list(accumulate(range(width, 0, -1), initial=0))
    weights = [math.comb(p + e, e) for p, e in pe]
    moments = {d: [mom[e] for _, e in pe] for d, mom in table.items()}
    weighted: dict[int, list[int]] = {}
    out = []
    for r in range(n):
        acc = [0] * len(pe)
        for d, mom in moments.items():
            j = (r - d) % n
            cols = weighted.get(j)
            if cols is None:
                row = f.rows[j]
                cols = weighted[j] = [row[p + e] * w for (p, e), w in zip(pe, weights)]
            acc = list(map(add, acc, map(mul, cols, mom)))
        out.append(tuple(tuple(acc[bounds[p] : bounds[p + 1]]) for p in range(width)))
    return n, f.den * den, tuple(out)


def _operator_family(f: QuasiPoly, coeffs: RatPoly, s: int):
    """The family of sum_k a_k S^(N k) on f for every N = s (mod f's period),
    a_k = coeffs[k], cleared into integer weights over one denominator."""
    den, (weights,) = _integer_rows([coeffs.coeffs])
    return _operator_rows(f, _moment_table(weights, f.period, len(f.rows[0]), s), den)


def _evaluate(family, N: int) -> QuasiPoly:
    """The family of ``_operator_rows`` at N, as a canonical QuasiPoly."""
    n, den, rows = family
    powers = [N**e for e in range(len(rows[0]))]
    return _make(n, den, [[sum(map(mul, c, powers)) for c in row] for row in rows])


def apply_S(f: QuasiPoly, op: OperatorPoly) -> QuasiPoly:
    """Apply ``sum_k a_k S^(m k)`` to ``f``: result(t) = sum a_k f(t - m k).

    Computed at f's period n, which is minimal: slot r draws on the
    constituent at slot (r - m k) mod n with its argument shifted by m k;
    m < 1 raises ValueError.
    """
    if op.stride < 1:
        raise ValueError("stride must be >= 1")
    return _evaluate(_operator_family(f, op.coeffs, op.stride), op.stride)


@lru_cache(maxsize=None)
def _uniform_cumulants(width: int) -> tuple[int, tuple[int, ...]]:
    """``(D, c)`` with kappa_k = c[k] (m^k - 1) / D for 0 < k < width, the
    cumulants of u uniform on [0, m) for every m: from
    log((e^(mz) - 1) / (m (e^z - 1))), kappa_k = B_k (m^k - 1) / k with the
    Bernoulli numbers B_1 = +1/2, B_2 = 1/6, B_3 = 0, ...; c[0] = 0."""
    B = [Fraction(1)]
    for k in range(1, width):
        B.append(1 - sum(math.comb(k, j) * b / (k - j + 1) for j, b in enumerate(B)))
    D, (c,) = _integer_rows([[Fraction(0)] + [b / k for k, b in enumerate(B) if k]])
    return D, tuple(c)


def _apply_block_product(start: QuasiPoly, block: int, strides: list[int]) -> QuasiPoly:
    """Apply prod_j (1/block) [block]_{S^{s_j}} to ``start`` in one kernel pass.

    Requires start's period to divide every stride s_j (ValueError
    otherwise), so the shift X = sum_j s_j u_j, u_j uniform on [0, block)
    and independent, moves no slot: the table is class 0 alone.  Its
    moments mu_e of -X follow from kappa_k(-X) = (-1)^k (sum_j s_j^k)
    kappa_k(u) by mu_e = sum_k C(e-1, k-1) kappa_k mu_(e-k), in integers
    M_e = D^e mu_e; the table holds block^len(strides) mu_e, a sum over
    every u, so an integer.
    """
    n, width = start.period, len(start.rows[0])
    if any(s % n for s in strides):
        raise ValueError(f"period {n} does not divide every stride of {strides}")
    if block == 1:
        return start
    D, c = _uniform_cumulants(width)
    # K[k] = D^k kappa_k(-X)
    K = [0] + [
        (-D) ** (k - 1) * -c[k] * (block**k - 1) * sum(s**k for s in strides)
        for k in range(1, width)
    ]
    M = [1]
    for e in range(1, width):
        M.append(sum(math.comb(e - 1, k - 1) * K[k] * M[e - k] for k in range(1, e + 1)))
    den = block ** len(strides)
    moments = [v * den // D**e for e, v in enumerate(M)]
    return _evaluate(_operator_rows(start, {0: moments}, den), 1)

