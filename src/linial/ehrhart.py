"""Lattice-point counting for fundamental alcoves and the alcove
quasi-polynomial L_Phi with its per-order pieces.

``L(q)`` counts x in Z^l (all coordinates >= 0) with c_1 x_1 + ... + c_l x_l
<= q, where the c_i are the marks; its generating series is
1 / prod_{i=0..l} (1 - x^{c_i}) (the extra c_0 = 1 factor accumulates the
inequality).  One cached list of series coefficients serves both the
counts and L: all rho residue classes are Newton-interpolated from it
together, lane-wise, on integers over one common denominator, with a
spare node per class as a consistency check.

L splits into one piece P_d per cyclotomic order d dividing a mark: the
part of L whose terms zeta^t P(t) have zeta a primitive d-th root of unity.
Averaging over sigma^e keeps the pieces whose order divides e, so
tilde(L, e) = sum_{d | e} P_d, and Moebius inversion of that sum gives each
piece.  The pieces are what ``arrangements.char_quasi`` applies
R_Phi(S^(n+1)) to, one at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub

from .quasipoly import QuasiPoly, _make, sorted_divisors, tilde
from .rootsystems import RootSystemInfo

__all__ = [
    "PeriodConsistencyError",
    "denumerant_count",
    "ehrhart_quasi",
    "decompose_ehrhart",
]


class PeriodConsistencyError(RuntimeError):
    """Interpolated constituent missed the spare node: wrong period/degree."""


# -- counting ----------------------------------------------------------------

_SERIES_CACHE: dict[tuple[int, ...], list[int]] = {}


def _alcove_series(marks: tuple[int, ...], length: int) -> list[int]:
    """First ``length`` coefficients of 1/prod(1 - x^c) over the marks."""
    cached = _SERIES_CACHE.get(marks)
    if cached is not None and len(cached) >= length:
        return cached
    a = [0] * max(length, 2 * len(cached) if cached else 0)
    a[0] = 1
    for c in marks:
        for r in range(c):
            a[r::c] = accumulate(a[r::c])
    _SERIES_CACHE[marks] = a
    return a


def denumerant_count(info: RootSystemInfo, q: int) -> int:
    """#{x in Z^l, x >= 0 : sum c_i x_i <= q} by exact series expansion."""
    if q < 0:
        raise ValueError("q must be >= 0")
    return _alcove_series(info.marks, q + 1)[q]


# -- interpolation -----------------------------------------------------------


@lru_cache(maxsize=None)
def ehrhart_quasi(info: RootSystemInfo) -> QuasiPoly:
    """The alcove Ehrhart quasi-polynomial: degree = rank, period = rho
    (= lcm of the marks), from the series 1 / prod_{i=0..l} (1 - x^{c_i}).

    With p = rho and M = l + 1 marks, lane r, residue r, is the Newton
    interpolant through r + m p, m < M, in integers over (M-1)! p^(M-1);
    it meets the spare node m = M iff the M-th difference is zero.  The p
    lanes go through each step together, as lists."""
    p, big_m = info.period_rho, len(info.marks)
    series = _alcove_series(info.marks, p * (big_m + 1))
    scale = math.factorial(big_m - 1) * p ** (big_m - 1)
    nodes = [range(m * p, (m + 1) * p) for m in range(big_m + 1)]
    vals = [series[m.start : m.stop] for m in nodes]
    newton = []  # lane-wise scale * (m-th forward difference) / (m! p^m)
    for m in range(big_m):
        w = scale // (math.factorial(m) * p**m)
        newton.append([v * w for v in vals[0]])
        vals = [list(map(sub, v, u)) for u, v in zip(vals, vals[1:])]
    for i, v in enumerate(vals[0]):
        if v:
            raise PeriodConsistencyError(f"residue {i} misses node {nodes[-1][i]}")
    zero = [0] * p
    row = []  # nested form: newton[m] + (t - node_m) * (the terms above m), lane-wise
    for m in range(big_m - 1, -1, -1):
        row = [list(map(sub, u, map(mul, nodes[m], v))) for u, v in zip([zero] + row, row + [zero])]
        row[0] = list(map(add, row[0], newton[m]))
    return _make(p, scale, list(zip(*row)))


# -- decomposition by cyclotomic order ----------------------------------------


@lru_cache(maxsize=None)
def decompose_ehrhart(info: RootSystemInfo) -> tuple[tuple[int, QuasiPoly], ...]:
    """Split L into one quasi-polynomial piece per cyclotomic order d,
    where d runs over the divisors of the marks (= the distinct marks for
    every catalog type): the piece for d is the part of L whose terms
    zeta^t P(t) have zeta a primitive d-th root of unity.  It has period
    dividing d and degree at most (number of marks d divides) - 1, and the
    pieces sum pointwise to L.  The (d, piece) pairs are cached per type
    and returned as one shared tuple.

    Each such d divides rho, and tilde(L, d), the average of L's slots over
    each class mod d, is the sum of the pieces whose order divides d; so
    the piece for d is tilde(L, d) less the pieces of the proper divisors
    of d, taken in ascending order of d, which builds each of those first."""
    L = ehrhart_quasi(info)
    pieces: dict[int, QuasiPoly] = {}
    for d in sorted({e for c in info.marks for e in sorted_divisors(c)}):
        piece = tilde(L, d)
        for e in sorted_divisors(d)[:-1]:
            piece -= pieces[e]
        pieces[d] = piece
    return tuple(pieces.items())
