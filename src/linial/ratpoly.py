"""Exact univariate polynomial arithmetic over the rationals.

Dense representation: a polynomial is a tuple of ``fractions.Fraction``
coefficients indexed by the power of ``t`` (lowest degree first), with no
trailing zeros.  The zero polynomial is the empty tuple and has degree
``-inf``.  Everything in this module is exact; no floats anywhere.

Besides the ring operations this module provides the small amount of
special-purpose machinery the rest of the package leans on:

* ``cyclotomic_type(c)`` builds ``[c]_t = 1 + t + ... + t^(c-1)``,
* the congruence predicate modulo a power of ``1 - t``,
* the residue-class moment test that characterises divisibility by
  ``[n]_t^(l+1)``.

The integer Sturm chains of the root-line certificate live in ``rootline``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "RatPoly",
    "cyclotomic_type",
    "shift_argument",
    "compose_power",
    "derivative",
    "congruent_mod_power",
    "moment_divisibility",
    "render_poly",
]

NEG_INF = float("-inf")


class RatPoly:
    """Immutable dense polynomial with big-rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        # kept as it is: Fraction(c) of a Fraction takes the slow numbers.Rational path
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: Fraction | int = 1) -> "RatPoly":
        """Return ``c * t^k``."""
        return cls((0,) * k + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        """Coefficient of ``t^k`` (zero when out of range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly(out)

    def scale(self, c: Fraction | int) -> "RatPoly":
        c = Fraction(c)
        return RatPoly(tuple(c * a for a in self.coeffs))

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power")
        out = RatPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, t: Fraction | int) -> Fraction:
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # -- comparisons / misc -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({render_poly(self)})"


def cyclotomic_type(c: int) -> RatPoly:
    """Return ``[c]_t = 1 + t + ... + t^(c-1)``; ``[0]_t = 0``."""
    if c < 0:
        raise ValueError("negative block size")
    return RatPoly((1,) * c)


def shift_argument(p: RatPoly, a: Fraction | int) -> RatPoly:
    """Return the Taylor shift ``p(t + a)``, exactly, on integers."""
    if a == 0 or p.is_zero:
        return p
    ints, den = _shift_integers(p, a)
    return RatPoly(Fraction(q, den) for q in ints)


def _shift_integers(p: RatPoly, a: Fraction | int) -> tuple[list[int], int]:
    """``(R, E)`` with p(t + a) = sum R_j t^j / E, E > 0, for p nonzero: with
    D the lcm of p's denominators, D p = sum P_k t^k, deg p = m and a = u/v
    (v > 0), v^m D p(s + u/v) = Q(v s) for Q(x) = sum P_k v^(m-k) (x + u)^k,
    built by Horner's rule on integers; so R_j = Q_j v^j and E = v^m D."""
    a = Fraction(a)
    u, v, cs = a.numerator, a.denominator, p.coeffs
    den, m = math.lcm(*(c.denominator for c in cs)), len(cs) - 1
    out: list[int] = []
    for k in range(m, -1, -1):  # out <- out * (x + u) + P_k v^(m-k)
        out = [x + u * y for x, y in zip([0] + out, out + [0])]
        out[0] += cs[k].numerator * (den // cs[k].denominator) * v ** (m - k)
    return [q * v**j for j, q in enumerate(out)], den * v**m


def compose_power(p: RatPoly, m: int) -> RatPoly:
    """Return ``p(t^m)`` for ``m >= 1``."""
    if m < 1:
        raise ValueError("power substitution needs m >= 1")
    if m == 1 or p.is_zero:
        return p
    out = [Fraction(0)] * ((len(p.coeffs) - 1) * m + 1)
    for i, c in enumerate(p.coeffs):
        out[i * m] = c
    return RatPoly(out)


def derivative(p: RatPoly) -> RatPoly:
    return RatPoly(tuple(i * c for i, c in enumerate(p.coeffs) if i > 0))


def congruent_mod_power(g1: RatPoly, g2: RatPoly, k: int) -> bool:
    """True iff ``(1 - t)^k`` divides ``g1 - g2``."""
    if k < 1:
        raise ValueError("k must be positive")
    diff = g1 - g2
    # (1-t)^k | diff  <=>  diff and its first k-1 derivatives vanish at t=1.
    for _ in range(k):
        if diff(1) != 0:
            return False
        diff = derivative(diff)
    return True


def moment_divisibility(g: RatPoly, n: int, ell: int) -> bool:
    """Residue-class moment test for divisibility by ``[n]_t^(ell+1)``.

    True iff, for every r in 0..ell, the moment sum
    ``sum_{k = j mod n} a_k * k^r`` does not depend on the class j.
    Agrees with exact division by ``[n]_t^(ell+1)``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    for r in range(ell + 1):
        sums = [Fraction(0)] * n
        for k, a in enumerate(g.coeffs):
            if a != 0:
                sums[k % n] += a * k**r
        if any(s != sums[0] for s in sums[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# Rendering


def render_poly(p: RatPoly, var: str = "t") -> str:
    """Human-readable form, descending powers: ``t^2 - 3t + 3``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        a = abs(c)
        if k == 0:
            body = str(a)
        else:
            mag = "" if a == 1 else str(a)
            body = f"{mag}{var}" if k == 1 else f"{mag}{var}^{k}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts)
