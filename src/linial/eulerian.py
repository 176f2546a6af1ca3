"""Eulerian polynomials and their root-system generalization.

Convention: A_l(t) = sum over permutations of {1..l} of t^(asc+1), so
A_0 = 1, A_1 = t, A_2 = t + t^2, A_3 = t + 4t^2 + t^3, and A_l(1) = l!.

The generalized polynomial R_Phi is the product
[c_0]_t [c_1]_t ... [c_l]_t * A_l(t) over the marks.  It equals
(1/f) * sum over the Weyl group of t^asc(w), with asc(w) the sum of the c_i
over the i in 0..l with w(alpha_i) > 0; the tests keep that sum as an
independent reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .ratpoly import RatPoly
from .rootsystems import RootSystemInfo

__all__ = ["eulerian", "generalized_eulerian"]


@lru_cache(maxsize=None)
def eulerian(ell: int) -> RatPoly:
    """The Eulerian polynomial A_ell(t); A_0 = 1."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        return RatPoly.one()
    # triangle of ascent counts: row[j] = #{perms of {1..m} with j ascents}
    row = [1]
    for m in range(2, ell + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0)
            + (m - j) * (row[j - 1] if j >= 1 else 0)
            for j in range(m)
        ]
    return RatPoly((0, *row))


@lru_cache(maxsize=None)
def generalized_eulerian(info: RootSystemInfo) -> RatPoly:
    """R_Phi(t) as the cyclotomic-type product over the marks times A_l, on
    integers: coefficient j of p [c]_t is a difference of prefix sums of p."""
    acc = [a.numerator for a in eulerian(info.rank).coeffs]
    for c in info.marks:
        sums = list(accumulate(acc, initial=0))
        acc = [sums[min(j + 1, len(acc))] - sums[max(j + 1 - c, 0)] for j in range(len(acc) + c - 1)]
    return RatPoly(acc)
