"""Quasi-polynomials: periods, constituents, the cyclic sigma action,
tilde averaging, and the shift operators S and S-bar.

A quasi-polynomial of period ``n`` has one polynomial constituent per
residue class mod n; slot ``r`` answers for arguments ``t = r (mod n)``.
(One-based constituent numbering found in the literature maps onto this as
"constituent j" <-> slot ``j mod n``, so the n-th constituent is slot 0.)

Each is stored in one canonical integer form, slot r = ``rows[r] / den``:
den > 0 and coprime to the entries, rows of one width without an all-zero
top column.  Every operation works on these int tuples; ``constituents``
derives :class:`RatPoly` slots only for callers that ask.

The shift operator acts by ``(S f)(t) = f(t - 1)``; an ``OperatorPoly``
bundles a coefficient polynomial with a stride m and stands for
``sum_k a_k S^(m*k)``.  ``apply_S`` realizes that action exactly.
``apply_Sbar`` is the constituent-wise variant: it shifts each slot's
argument without rotating slots, so that ``(S f)(t) = (Sbar f^sigma)(t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, zip_longest
from operator import add, mul
from typing import Iterable

from .ratpoly import RatPoly, compose_power

__all__ = [
    "QuasiPoly",
    "OperatorPoly",
    "operator_product",
    "minimal_period",
    "has_gcd_property",
    "sigma_pow",
    "tilde",
    "apply_S",
    "apply_Sbar",
    "quasipoly_to_json",
    "quasipoly_from_json",
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
        den = math.lcm(*(c.denominator for p in cs for c in p.coeffs), 1)
        rows = [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in cs]
        f = _make(period, den, rows)
        _set(self, f.period, f.den, f.rows)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("QuasiPoly is immutable")

    @classmethod
    def from_poly(cls, p: RatPoly) -> "QuasiPoly":
        """Wrap an ordinary polynomial as a period-1 quasi-polynomial."""
        return cls(1, (p,))

    @classmethod
    def zero(cls, period: int = 1) -> "QuasiPoly":
        return cls(period, (RatPoly.zero(),) * period)

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

    def at_period(self, n: int) -> "QuasiPoly":
        """Re-materialize at a period ``n`` that is a multiple of the current one."""
        if n % self.period:
            raise ValueError("new period must be a multiple of the old")
        return _raw(n, self.den, self.rows * (n // self.period))

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
        """Equality as functions: compare after minimal-period normalization."""
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        a = minimal_period(self)
        b = minimal_period(other)
        return a.period == b.period and a.den == b.den and a.rows == b.rows

    def __hash__(self) -> int:
        f = minimal_period(self)
        return hash((f.period, f.den, f.rows))

    def __repr__(self) -> str:
        return f"QuasiPoly(period={self.period}, constituents={list(self.constituents)!r})"


def _set(f: QuasiPoly, *form) -> QuasiPoly:
    for name, value in zip(QuasiPoly.__slots__, form):
        object.__setattr__(f, name, value)
    return f


def _raw(period: int, den: int, rows) -> QuasiPoly:
    """A QuasiPoly from a form that is canonical already."""
    return _set(object.__new__(QuasiPoly), period, den, rows)


def _make(period: int, den: int, rows) -> QuasiPoly:
    """A QuasiPoly from any ``rows / den``: brought to rows of one width
    without an all-zero top column, den > 0 and coprime to the entries."""
    width = 0
    for row in rows:
        k = len(row)
        while k > width and not row[k - 1]:
            k -= 1
        width = max(width, k)
    if not width:
        return _raw(period, 1, ((),) * period)
    rows = [list(row[:width]) + [0] * (width - len(row)) for row in rows]
    g = math.gcd(den, *chain.from_iterable(rows)) * (1 if den > 0 else -1)
    return _raw(period, den // g, tuple(tuple(v // g for v in row) for row in rows))


@dataclass(frozen=True)
class OperatorPoly:
    """``sum_k coeffs[k] * S^(stride*k)`` — a polynomial in a power of S."""

    coeffs: RatPoly
    stride: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def operator_product(*factors: tuple[RatPoly, int]) -> OperatorPoly:
    """Expand a product of operator factors ``(p_i, m_i) == p_i(S^(m_i))``
    into a single stride-1 OperatorPoly."""
    acc = RatPoly.one()
    for p, m in factors:
        acc = acc * compose_power(p, m)
    return OperatorPoly(acc, 1)


def minimal_period(f: QuasiPoly) -> QuasiPoly:
    """Smallest-period representation equal to ``f`` pointwise."""
    n, rows = f.period, f.rows
    for d in sorted_divisors(n):
        if rows[d:] == rows[: n - d]:
            return _raw(d, f.den, rows[:d]) if d != n else f
    return f  # pragma: no cover - n itself always matches


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


def has_gcd_property(f: QuasiPoly) -> bool:
    """True iff constituent r coincides with constituent gcd(r, n) for
    r = 1..n, at f's stored period n."""
    n, rows = f.period, f.rows
    return all(rows[r % n] == rows[math.gcd(r, n) % n] for r in range(1, n + 1))


def sigma_pow(f: QuasiPoly, k: int) -> QuasiPoly:
    """Apply the cyclic slot rotation sigma = (1 ... n), k times, at the
    minimal period: new slot r holds old constituent (r - k) mod n."""
    f = minimal_period(f)
    n = f.period
    return _raw(n, f.den, tuple(f.rows[(r - k) % n] for r in range(n)))


def tilde(f: QuasiPoly, k: int) -> QuasiPoly:
    """Average of ``f`` over the orbit of sigma^k, taken at f's minimal
    period n.

    The orbit of slot r is the coset r + gZ/n with g = gcd(k, n), so slot r
    of the average is (g/n) * sum of the constituents at slots j = r (mod g):
    g column sums of n/g rows, over the denominator den * n/g.  The result
    has period dividing g and is returned at its minimal period.
    """
    f = minimal_period(f)
    n = f.period
    g = math.gcd(k, n)
    rows = [[sum(col) for col in zip(*f.rows[r::g])] for r in range(g)]
    return minimal_period(_make(g, f.den * (n // g), rows))


# ---------------------------------------------------------------------------
# Operator application: the hot path of the package.  With s_k = m k, the
# terms of sum_k a_k S^(m k) f that read the same source row c combine as
#
#     sum_k a_k c(t - s_k) = sum_p t^p sum_e C(p+e, e) c_{p+e} M_e,
#     M_e = sum_k a_k (-s_k)^e,
#
# so ``_operator_rows`` takes power moments once per class d = s_k mod n (a
# single class for S-bar) and binomial-weighted columns once per source row;
# a (slot, class) pair then costs one pass over the flattened (p, e) terms,
# not one shift per k, all on integers.
# ``apply_S``/``apply_Sbar`` request every slot; ``char_poly`` requests one.


def _operator_rows(f: QuasiPoly, op: OperatorPoly, slots, rotate: bool):
    """``(den, rows)`` of the listed slots of ``sum_k a_k S^(m k) f``
    (``rotate``) or of its S-bar variant, at f's stored period."""
    n, width, cs = f.period, len(f.rows[0]), op.coeffs.coeffs
    den_a = math.lcm(*(c.denominator for c in cs), 1)
    moments: dict[int, list[int]] = {}
    for k, c in enumerate(cs):
        ak, s = c.numerator * (den_a // c.denominator), op.stride * k
        if ak:
            mom = moments.setdefault(s % n if rotate else 0, [0] * width)
            for e in range(width):
                mom[e] += ak
                ak *= -s
    # the (p, e) terms with p + e < width, flattened p-major
    pe = [(p, e) for p in range(width) for e in range(width - p)]
    bounds = list(accumulate(range(width, 0, -1), initial=0))
    weights = [math.comb(p + e, e) for p, e in pe]
    moments = {d: [mom[e] for _, e in pe] for d, mom in moments.items()}
    weighted: dict[int, list[int]] = {}
    out = []
    for r in slots:
        acc = [0] * len(pe)
        for d, mom in moments.items():
            j = (r - d) % n
            cols = weighted.get(j)
            if cols is None:
                row = f.rows[j]
                cols = weighted[j] = [row[p + e] * w for (p, e), w in zip(pe, weights)]
            acc = list(map(add, acc, map(mul, cols, mom)))
        out.append([sum(acc[bounds[p] : bounds[p + 1]]) for p in range(width)])
    return f.den * den_a, out


def _apply_operator(f: QuasiPoly, op: OperatorPoly, rotate: bool) -> QuasiPoly:
    f = minimal_period(f)
    den, rows = _operator_rows(f, op, range(f.period), rotate)
    return _make(f.period, den, rows)


def apply_S(f: QuasiPoly, op: OperatorPoly) -> QuasiPoly:
    """Apply ``sum_k a_k S^(m k)`` to ``f``: result(t) = sum a_k f(t - m k).

    Materialized at f's minimal period: slot r draws on the constituent at
    slot (r - m k) mod n with its argument shifted by m k.
    """
    return _apply_operator(f, op, rotate=True)


def apply_Sbar(f: QuasiPoly, op: OperatorPoly) -> QuasiPoly:
    """Constituent-wise variant: slot r of the result is
    ``sum_k a_k * (slot r)(t - m k)`` — no slot rotation."""
    return _apply_operator(f, op, rotate=False)


# ---------------------------------------------------------------------------
# Serialization (rationals as "p/q" strings, exactness preserved)


def quasipoly_to_json(f: QuasiPoly) -> dict:
    return {
        "period": f.period,
        "constituents": [[str(c) for c in p.coeffs] for p in f.constituents],
    }


def quasipoly_from_json(obj: dict) -> QuasiPoly:
    return QuasiPoly(
        int(obj["period"]),
        tuple(RatPoly(Fraction(c) for c in cs) for cs in obj["constituents"]),
    )
