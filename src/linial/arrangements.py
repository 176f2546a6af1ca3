"""Characteristic quasi-polynomials of Linial arrangements.

For a root system Phi and n >= 1, the arrangement consists of the
hyperplanes (alpha, x) = k for positive roots alpha and 1 <= k <= n
(n = 0 is the empty arrangement, whose characteristic polynomial is t^l).
The central objects:

* ``char_quasi(info, n)``       — the characteristic quasi-polynomial,
                                  R_Phi(S^(n+1)) applied to L_Phi, computed
                                  piece by piece over the decomposition of
                                  L_Phi by cyclotomic order, each image a
                                  family in N cached per class, evaluated
                                  at N = n+1;
* ``char_poly(info, n)``        — its constituent at residue 1 (the
                                  characteristic polynomial proper): the
                                  family of that slot of tilde(L_Phi, g),
                                  g = gcd(n+1, rho), evaluated at N = n+1;
* ``oracle_count(info, a, b, q)`` — independent count of complement
                                  points in (Z/q)^l, by pruned enumeration;
* ``verify_*``                  — exact constituent-level checks of the
                                  period/collapse identities satisfied by
                                  these quasi-polynomials.

The counting function q -> oracle_count(q) agrees with the quasi-polynomial
for all q >= n(h-1), and everywhere when n = 0; that part is proven by the
finite-field method.  Below the threshold the count is not yet
quasi-polynomial and the two differ; that part is only observed, at every
point below the threshold on the fixed grid of acceptance criterion 3, and
is not proven to hold for every type and n.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

from .ehrhart import PeriodConsistencyError, decompose_ehrhart, ehrhart_quasi
from .eulerian import generalized_eulerian
from .quasipoly import (
    QuasiPoly,
    _apply_block_product,
    _evaluate,
    _make,
    _operator_family,
    tilde,
)
from .ratpoly import RatPoly
from .rootsystems import RootSystemInfo, positive_roots

__all__ = [
    "char_quasi",
    "char_poly",
    "oracle_count",
    "oracle_agreement_bound",
    "verify_main_theorem",
    "verify_corollary1",
    "gcd_prime_polynomial",
    "verify_rad_theorem",
]


@lru_cache(maxsize=None)
def char_quasi(info: RootSystemInfo, n: int) -> QuasiPoly:
    """chi_quasi of the [1, n] arrangement, R_Phi(S^(n+1)) applied to L_Phi,
    through the decomposition of L_Phi: the sum over every piece P_d of
    ``decompose_ehrhart`` of R_Phi(S^N) P_d, N = n+1, each the cached
    family of P_d for the class of N mod d evaluated at N.  The main theorem
    annihilates every piece with d not dividing N; none is skipped for that,
    so that ``verify_main_theorem`` checks it: only a family that is all
    zero, the kernel's finding for every N of its class, adds nothing."""
    if n < 0:
        raise ValueError("n must be >= 0")
    N = n + 1
    families = (_family(piece, info, N % piece.period) for _, piece in decompose_ehrhart(info))
    images = (_evaluate(fam, N) for fam in families if any(map(any, chain.from_iterable(fam[2]))))
    return sum(images, next(images, QuasiPoly.zero()))


@lru_cache(maxsize=None)
def _family(f: QuasiPoly, info: RootSystemInfo, s: int):
    """The family of R_Phi(S^N) f for N = s (mod f's period), one kernel pass
    per (operand value, type, class); at s = 0 no slot rotates, so it is
    R_Phi(Sbar^N) f for any f."""
    return _operator_family(f, generalized_eulerian(info), s)


@lru_cache(maxsize=None)
def _char_family(info: RootSystemInfo, g: int):
    """The family of chi_n for every N = n+1 with gcd(N, rho) = g: by the
    main theorem chi_n is R_Phi(Sbar^N) on c, the residue-1 slot of
    tilde(L_Phi, g), as a period-1 operand (Yoshinaga, Tohoku Math. J. 70)."""
    avg = tilde(ehrhart_quasi(info), g)
    return _family(_make(1, avg.den, [avg.rows[1 % avg.period]]), info, 0)


def char_poly(info: RootSystemInfo, n: int) -> RatPoly:
    """The constituent of ``char_quasi`` at residue 1: the family
    ``_char_family`` of the class g = gcd(n+1, rho) evaluated at N = n+1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _evaluate(_char_family(info, math.gcd(n + 1, info.period_rho)), n + 1).constituents[0]


def oracle_agreement_bound(info: RootSystemInfo, n: int) -> int:
    """Smallest q from which on eval(char_quasi) provably equals the count.

    Agreement for q >= n(h-1) (for every q when n = 0) is proven.  That the
    bound is sharp, i.e. the two differ at every q below it, is observed on
    the acceptance grid only.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return n * (info.coxeter_h - 1)


# Largest q^rank that ``oracle_count`` (and the sum that a ``verify`` sweep) may enumerate.
_ORACLE_POINT_BUDGET = 10**9
# Most candidate points the oracle holds per level: _BLOCK // min(q, 64) prefixes, 64 bits each.
_BLOCK = 1 << 16


def oracle_count(info: RootSystemInfo, a: int, b: int, q: int) -> int:
    """#{x in (Z/q)^l : alpha . x != k (mod q) for all positive roots alpha
    and all integers k in [a, b]}; b = a - 1 denotes the empty arrangement.

    A count of points, with no algebra: the x_i = (alpha_i, x) are fixed one
    at a time, and a prefix is dropped once a root whose last nonzero
    simple-root coefficient c was just fixed lands in F = {k mod q : a <= k <= b}.
    x_0 is read off F (alpha_0 is the one root ending there); later x_i, 64
    values at a time, off packed rows: bit t of M_c[v] is [(v + c t) mod q in F].
    Raises ValueError when q^l exceeds ``_ORACLE_POINT_BUDGET``."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if b < a - 1:
        raise ValueError("b must be >= a - 1")
    ell = info.rank
    if q**ell > _ORACLE_POINT_BUDGET:
        raise ValueError(f"{q}^{ell} points exceed the oracle budget {_ORACLE_POINT_BUDGET}")
    if b == a - 1:
        return q**ell
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    C = np.array(positive_roots(info), dtype=np.int64)
    last = ell - 1 - np.argmax(C[:, ::-1] > 0, axis=1)  # last nonzero coordinate
    C, last = C[last.argsort(kind="stable")], np.sort(last)
    ext = np.zeros(q, dtype=bool)  # ext[u] = [u mod q in F]; F is a cyclic interval of <= q residues
    start, size = a % q, min(b - a + 1, q)
    ext[start : start + size] = ext[: max(0, start + size - q)] = True
    if ell == 1:
        return q - int(np.count_nonzero(ext))
    ext = np.resize(ext, 2 * q + int(C.max()) * 64)
    # M[c][v] for v < 2q: the zero-copy view ext[v + c t], t < 64, packed into one word
    M = {c: np.packbits(as_strided(ext, (2 * q, 64), (1, c)), axis=1, bitorder="little")
         .copy().view("<u8")[:, 0] for c in set(C.ravel().tolist()) - {0}}
    assert 2 * q <= 1 << 16  # rank >= 2 in the budget: q <= 31,622, so partial dots u + c x < 2q
    Q, rows = np.uint16(q), _BLOCK // min(q, 64)  # rows: prefixes per block

    def count(D, j):  # D[k]: partial dot mod q of the k-th root not settled before x_j
        lo, hi = np.searchsorted(last, [j, j + 1])
        alive = 0
        for x0 in range(0, q, 64):
            w = min(64, q - x0)
            xc = (C[hi:, j, None] * np.arange(x0, x0 + w) % q).astype(np.uint16)
            for i in range(0, D.shape[1], rows):
                blk = D[:, i : i + rows]
                bad = np.full(blk.shape[1], (1 << 64) - (1 << w), dtype="<u8")  # bits t >= w: past q
                for k in range(lo, hi):  # the row of u on x0 + t is M_c[u + (c x0 mod q)] on t
                    bad |= M[C[k, j]][C[k, j] * x0 % q :][blk[k - lo]]
                bits = np.unpackbits(bad.view(np.uint8), bitorder="little")
                if j == ell - 1:
                    alive += bits.size - int(np.count_nonzero(bits))
                    continue
                pi, xi = np.nonzero(bits.reshape(-1, 64)[:, :w] == 0)
                nd = np.take(blk[hi - lo :], pi, axis=1) + np.take(xc, xi, axis=1)
                nd -= Q * (nd >= Q)
                alive += count(nd, j + 1)
        return alive

    return count((C[1:, 0, None] * np.flatnonzero(~ext[:q]) % q).astype(np.uint16), 1)


def verify_main_theorem(info: RootSystemInfo, n: int) -> bool:
    """chi_quasi == R_Phi(Sbar^(n+1)) applied to the tilde-average of L at
    g = gcd(n+1, rho), and the minimal period divides g.  The right side is
    the average's family at class 0, which rotates no slot, at N = n+1.

    The average keeps exactly the pieces of L whose order d divides g, i.e.
    n+1, while ``char_quasi`` sums the images of every piece, and S maps
    each piece's order class to itself.  So the check says that
    R_Phi(S^(n+1)) annihilates every piece of order d not dividing n+1."""
    g = math.gcd(n + 1, info.period_rho)
    lhs = char_quasi(info, n)
    rhs = _evaluate(_family(tilde(ehrhart_quasi(info), g), info, 0), n + 1)
    return lhs == rhs and g % lhs.period == 0


def verify_corollary1(info: RootSystemInfo, n: int) -> bool:
    """chi_quasi(n) from chi_quasi(g - 1), g = gcd(n+1, rho), through the
    block product prod_j (1/m-hat) [m-hat]_{S^(c_j g)}, m-hat = (n+1)/g, applied
    in one moment pass (``_apply_block_product``).  That pass needs the
    period of chi_quasi(g - 1) to divide g; where it does not, the check fails."""
    g = math.gcd(n + 1, info.period_rho)
    base = char_quasi(info, g - 1)
    if g % base.period:
        return False
    built = _apply_block_product(base, (n + 1) // g, [c * g for c in info.marks])
    return built == char_quasi(info, n)


def gcd_prime_polynomial(info: RootSystemInfo, n: int) -> RatPoly:
    """For gcd(n+1, rho) = 1: the polynomial
    prod_j (1/(n+1)) [n+1]_{S^{c_j}} applied to the integer form of t^l in
    one moment pass, which must equal the (period-1) characteristic
    quasi-polynomial (Athanasiadis, J. Algebraic Combin. 10).  Raises
    PeriodConsistencyError if the product is not a polynomial."""
    if math.gcd(n + 1, info.period_rho) != 1:
        raise ValueError("requires gcd(n+1, rho) = 1")
    start = _make(1, 1, [[0] * info.rank + [1]])
    built = _apply_block_product(start, n + 1, list(info.marks))
    if built.period != 1:
        raise PeriodConsistencyError(f"block product has period {built.period}, not 1")
    return built.constituents[0]


def verify_rad_theorem(info: RootSystemInfo, n: int) -> bool:
    """Characteristic polynomial at level gcd(n+1, rho) - 1 from the one at
    level gcd(n+1, rad(rho)) - 1 through the block product
    prod_j (1/eta) [eta]_{S^(c_j g_rad)}, eta = g / g_rad, applied in one
    moment pass, on the integer forms ``_char_family`` at N = g and g_rad.
    At eta = 1 both sides are one polynomial and this holds trivially;
    ``linial verify`` then omits the check."""
    g = math.gcd(n + 1, info.period_rho)
    gr = math.gcd(n + 1, info.rad_rho)
    target = _evaluate(_char_family(info, g), g)
    start = _evaluate(_char_family(info, gr), gr)
    return _apply_block_product(start, g // gr, [c * gr for c in info.marks]) == target
