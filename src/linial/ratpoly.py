"""Exact univariate polynomial arithmetic over the rationals.

Dense representation: a polynomial is a tuple of ``fractions.Fraction``
coefficients indexed by the power of ``t`` (lowest degree first), with no
trailing zeros.  The zero polynomial is the empty tuple and has degree
``-inf``.  Everything in this module is exact; no floats anywhere.

Besides the ring operations and ``render_poly`` it holds one format:
``_integer_rows`` clears rows of rational coefficients into integer rows
over one denominator, for the quasi-polynomials, the operator weights, the
cumulant table and the Taylor shift alike.  Most ring operations serve the
tests' references.  The integer Taylor shift and Sturm chains of the
root-line certificate live in ``rootline``.  The blocks ``[c]_t``, the
congruence modulo a power of ``1 - t`` and the moment test for
divisibility by ``[n]_t^(l+1)`` are references in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = ["RatPoly", "render_poly"]

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


def _integer_rows(rows) -> tuple[int, list[list[int]]]:
    """``(D, R)``: integer lists R[i] = D rows[i], D the lcm of the denominators."""
    den = math.lcm(1, *(c.denominator for row in rows for c in row))
    return den, [[c.numerator * (den // c.denominator) for c in row] for row in rows]


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
