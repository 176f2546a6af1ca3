"""Verify that all roots of a polynomial lie on a vertical line Re z = a.

Two independent routes:

numeric — all roots as companion-matrix eigenvalues (``numpy.roots``).  Zero
roots are stripped off exactly first, and repeated roots are separated with
an exact gcd, so the eigenvalue solve only ever sees squarefree factors.
Each factor is first shifted exactly, in rational arithmetic, onto the
centroid of its roots, -c_{d-1} / (d c_d).  For a characteristic polynomial
that centroid is the line nh/2 itself, so the eigenvalues come from a
polynomial whose roots sit on the imaginary axis, and their real parts carry
only the rounding error of the centred coefficients.  The report carries the
maximal deviation |Re z - a|.

exact — shift by a (rational arithmetic): all roots lie on Re z = a iff
r(s) = p(s + a) satisfies r(-s) = (-1)^deg r(s) AND the squarefree part
q = r / gcd(r, r'), of degree d, turns into a real polynomial
w(u) = i^(-d) * q(iu) with d distinct real roots.  The parity is an exact
coefficient check; the real-root count is an exact Sturm count on w, which
is squarefree by construction.  Together these turn a floating-point
observation into a rational-arithmetic proof or refutation, repeated roots
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratpoly import (
    RatPoly,
    derivative,
    poly_divmod,
    poly_gcd,
    shift_argument,
    sturm_count_real_roots,
)

__all__ = ["RootReport", "find_roots", "verify_line"]


@dataclass(frozen=True)
class RootReport:
    target_real_part: Fraction
    roots: tuple[complex, ...]
    max_deviation: float
    symmetry_exact: bool
    sturm_exact: bool
    squarefree: bool


def _centred_roots(p: RatPoly) -> list[complex]:
    """Roots of a squarefree p with nonzero constant term: companion-matrix
    eigenvalues of p shifted exactly onto the centroid of its roots."""
    import numpy as np

    deg = int(p.degree)
    a = -p.coeffs[-2] / (deg * p.leading)
    r = shift_argument(p, a)
    monic = [float(c / r.leading) for c in reversed(r.coeffs)]
    return [complex(z) + float(a) for z in np.roots(monic)]


def find_roots(p: RatPoly) -> list[complex]:
    """All complex roots of p (degree >= 1), with multiplicity,
    deterministically ordered by (imaginary, real) part."""
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")

    roots: list[complex] = []
    first = 0
    while p.coeffs[first] == 0:
        first += 1
    roots.extend([0j] * first)
    if first:
        p = RatPoly(p.coeffs[first:])

    deg = int(p.degree) if not p.is_zero else 0
    if deg == 1:
        roots.append(complex(Fraction(-p.coeffs[0], p.coeffs[1])))
    elif deg >= 2:
        g = poly_gcd(p, derivative(p))
        if g.degree >= 1:
            squarefree_part, rem = poly_divmod(p, g)
            assert rem.is_zero
            roots.extend(_centred_roots(squarefree_part))
            roots.extend(find_roots(g))
        else:
            roots.extend(_centred_roots(p))
    return sorted(roots, key=lambda w: (w.imag, w.real))


def verify_line(p: RatPoly, a: Fraction | int) -> RootReport:
    """Check that every root of p lies on Re z = a, numerically and exactly."""
    a = Fraction(a)
    roots = tuple(find_roots(p))
    max_dev = max(abs(z.real - float(a)) for z in roots)

    r = shift_argument(p, a)  # r(s) = p(s + a)
    deg = int(r.degree)
    symmetry = all(
        c == 0 for k, c in enumerate(r.coeffs) if (k - deg) % 2
    )
    g = poly_gcd(r, derivative(r))

    sturm_ok = False
    if symmetry:
        # the squarefree part keeps the parity of r, so
        # w(u) = i^(-d) q(iu) has rational coefficients
        q, _ = poly_divmod(r, g)
        d = int(q.degree)
        w = RatPoly(
            tuple(
                c * (-1) ** ((d - k) // 2) if (d - k) % 2 == 0 else Fraction(0)
                for k, c in enumerate(q.coeffs)
            )
        )
        sturm_ok = sturm_count_real_roots(w) == d
    return RootReport(
        target_real_part=a,
        roots=roots,
        max_deviation=max_dev,
        symmetry_exact=symmetry,
        sturm_exact=sturm_ok,
        squarefree=g.degree <= 0,
    )
