"""Quasi-polynomials: periods, constituents, the cyclic sigma action,
tilde averaging, and the shift operators S and S-bar.

A quasi-polynomial of period ``n`` stores one polynomial constituent per
residue class mod n; slot ``r`` answers for arguments ``t = r (mod n)``.
(One-based constituent numbering found in the literature maps onto this as
"constituent j" <-> slot ``j mod n``, so the n-th constituent is slot 0.)

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
    """Immutable quasi-polynomial: ``period`` slots of :class:`RatPoly`."""

    __slots__ = ("period", "constituents")

    period: int
    constituents: tuple[RatPoly, ...]

    def __init__(self, period: int, constituents: Iterable[RatPoly]):
        cs = tuple(constituents)
        if period < 1:
            raise ValueError("period must be >= 1")
        if len(cs) != period:
            raise ValueError(f"expected {period} constituents, got {len(cs)}")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", cs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("QuasiPoly is immutable")

    @classmethod
    def from_poly(cls, p: RatPoly) -> "QuasiPoly":
        """Wrap an ordinary polynomial as a period-1 quasi-polynomial."""
        return cls(1, (p,))

    @classmethod
    def zero(cls, period: int = 1) -> "QuasiPoly":
        return cls(period, tuple(RatPoly.zero() for _ in range(period)))

    def eval(self, t: int) -> Fraction:
        """Value at the integer ``t`` (constituent chosen by ``t mod period``)."""
        return self.constituents[t % self.period](t)

    @property
    def degree(self) -> int | float:
        return max(c.degree for c in self.constituents)

    def at_period(self, n: int) -> "QuasiPoly":
        """Re-materialize at a period ``n`` that is a multiple of the current one."""
        if n % self.period:
            raise ValueError("new period must be a multiple of the old")
        return QuasiPoly(n, tuple(self.constituents[r % self.period] for r in range(n)))

    def scale(self, c: Fraction | int) -> "QuasiPoly":
        return QuasiPoly(self.period, tuple(p.scale(c) for p in self.constituents))

    def __add__(self, other: "QuasiPoly") -> "QuasiPoly":
        n = math.lcm(self.period, other.period)
        return QuasiPoly(
            n,
            tuple(
                self.constituents[r % self.period] + other.constituents[r % other.period]
                for r in range(n)
            ),
        )

    def __sub__(self, other: "QuasiPoly") -> "QuasiPoly":
        return self + other.scale(-1)

    def __eq__(self, other: object) -> bool:
        """Equality as functions: compare after minimal-period normalization."""
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        a = minimal_period(self)
        b = minimal_period(other)
        return a.period == b.period and a.constituents == b.constituents

    def __hash__(self) -> int:
        f = minimal_period(self)
        return hash((f.period, f.constituents))

    def __repr__(self) -> str:
        return f"QuasiPoly(period={self.period}, constituents={list(self.constituents)!r})"


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
    n = f.period
    for d in sorted_divisors(n):
        if all(f.constituents[r] == f.constituents[r % d] for r in range(n)):
            return QuasiPoly(d, f.constituents[:d]) if d != n else f
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
    n = f.period
    return all(
        f.constituents[r % n] == f.constituents[math.gcd(r, n) % n]
        for r in range(1, n + 1)
    )


def sigma_pow(f: QuasiPoly, k: int) -> QuasiPoly:
    """Apply the cyclic slot rotation sigma = (1 ... n), k times, at the
    minimal period: new slot r holds old constituent (r - k) mod n."""
    f = minimal_period(f)
    n = f.period
    return QuasiPoly(n, tuple(f.constituents[(r - k) % n] for r in range(n)))


def tilde(f: QuasiPoly, k: int) -> QuasiPoly:
    """Average of ``f`` over the orbit of sigma^k, taken at f's minimal
    period n.

    The orbit of slot r is the coset r + gZ/n with g = gcd(k, n), so slot r
    of the average is (g/n) * sum of the constituents at slots j = r (mod g):
    g sums of n/g terms.  The result has period dividing g and is returned
    at its minimal period.
    """
    f = minimal_period(f)
    n = f.period
    g = math.gcd(k, n)
    scale = Fraction(g, n)
    slots = tuple(
        sum(f.constituents[r::g], RatPoly.zero()).scale(scale) for r in range(g)
    )
    return minimal_period(QuasiPoly(g, slots))


# ---------------------------------------------------------------------------
# Operator application.
#
# Hot path for the whole package: every characteristic polynomial is one
# slot of an operator with ~30 coefficients applied to a period-rho
# quasi-polynomial.  All the rational bookkeeping is therefore hoisted out:
# ``_integer_form`` scales the constituents to one common denominator,
# ``_integer_operator`` does the same for the operator coefficients,
# ``_operator_slot`` runs the argument shifts of one result slot on integer
# rows and rebuilds Fractions only for that slot.  ``apply_S`` and
# ``apply_Sbar`` loop it over every slot; ``char_poly`` calls it once on
# L_Phi's cached integer form.


def _integer_form(f: QuasiPoly) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``f`` at its minimal period as ``(den, rows)``: slot r is
    ``rows[r] / den``, every row padded with zeros to degree + 1."""
    f = minimal_period(f)
    deg = f.degree
    width = 0 if deg == float("-inf") else int(deg) + 1
    den = math.lcm(*(c.denominator for p in f.constituents for c in p.coeffs), 1)
    rows = tuple(
        tuple(int(c * den) for c in p.coeffs) + (0,) * (width - len(p.coeffs))
        for p in f.constituents
    )
    return den, rows


def _integer_operator(op: OperatorPoly) -> tuple[int, tuple[int, ...], int]:
    """``op`` as ``(den, a, m)``: ``sum_k (a[k] / den) S^(m k)``."""
    den = math.lcm(*(c.denominator for c in op.coeffs.coeffs), 1)
    return den, tuple(int(c * den) for c in op.coeffs.coeffs), op.stride


def _operator_slot(form, op_form, r: int, rotate: bool) -> RatPoly:
    """Slot r of ``sum_k a_k S^(m k) f`` (``rotate``) or of its S-bar variant,
    from the integer forms of f and of the operator."""
    den_f, rows = form
    den_a, a_int, m = op_form
    n = len(rows)
    width = len(rows[0])
    acc = [0] * width
    for k, a in enumerate(a_int):
        if a == 0:
            continue
        s = m * k
        src = rows[(r - s) % n] if rotate else rows[r]
        # a * src(t - s), by repeated synthetic division (Taylor shift)
        p = [a * c for c in src]
        for i in range(width - 1):
            for j in range(width - 2, i - 1, -1):
                p[j] -= s * p[j + 1]
        for j in range(width):
            acc[j] += p[j]
    full_den = den_f * den_a
    return RatPoly(Fraction(v, full_den) for v in acc)


def _apply_operator(f: QuasiPoly, op: OperatorPoly, rotate: bool) -> QuasiPoly:
    form = _integer_form(f)
    op_form = _integer_operator(op)
    n = len(form[1])
    return QuasiPoly(n, tuple(_operator_slot(form, op_form, r, rotate) for r in range(n)))


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
