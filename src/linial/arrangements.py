"""Characteristic quasi-polynomials of Linial arrangements.

For a root system Phi and n >= 1, the arrangement consists of the
hyperplanes (alpha, x) = k for positive roots alpha and 1 <= k <= n
(n = 0 is the empty arrangement, whose characteristic polynomial is t^l).
The central objects:

* ``char_quasi(info, n)``       — the characteristic quasi-polynomial,
                                  R_Phi(S^(n+1)) applied to L_Phi, computed
                                  from its generating series
                                  R_Phi(x^(n+1)) / prod (1 - x^{c_i});
* ``char_poly(info, n)``        — its constituent at residue 1 (the
                                  characteristic polynomial proper);
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
from fractions import Fraction
from functools import lru_cache

from .ehrhart import PeriodConsistencyError, _series_quasi, ehrhart_quasi
from .eulerian import generalized_eulerian
from .quasipoly import (
    OperatorPoly,
    QuasiPoly,
    _convolve,
    _make,
    _moment_table,
    _operator_rows,
    _operator_terms,
    apply_Sbar,
    minimal_period,
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
    "verify_shift_relation",
]


@lru_cache(maxsize=None)
def char_quasi(info: RootSystemInfo, n: int) -> QuasiPoly:
    """chi_quasi of the [1, n] arrangement, sum_k a_k L_Phi(t - (n+1)k) for
    R_Phi = sum_k a_k t^k: the quasi-polynomial of the generating series
    R_Phi(x^(n+1)) / prod_{i=0..l} (1 - x^{c_i})."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms, den = _operator_terms(OperatorPoly(generalized_eulerian(info), stride=n + 1))
    return _series_quasi(dict(terms), den, [(c, 1) for c in info.marks])


@lru_cache(maxsize=None)
def char_poly(info: RootSystemInfo, n: int) -> RatPoly:
    """The characteristic polynomial: the constituent of ``char_quasi`` at
    residue 1, computed as that one slot of R_Phi(S^(n+1)) applied to L_Phi
    without building the others."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms, den = _operator_terms(OperatorPoly(generalized_eulerian(info), stride=n + 1))
    L = ehrhart_quasi(info)
    table = _moment_table(terms, L.period, len(L.rows[0]))
    den, (row,) = _operator_rows(L, table, den, (1 % L.period,))
    return RatPoly(Fraction(c, den) for c in row)


def oracle_agreement_bound(info: RootSystemInfo, n: int) -> int:
    """Smallest q from which on eval(char_quasi) provably equals the count.

    Agreement for q >= n(h-1) (for every q when n = 0) is proven.  That the
    bound is sharp, i.e. the two differ at every q below it, is observed on
    the acceptance grid only.
    """
    return n * (info.coxeter_h - 1)


# Largest q^rank that ``oracle_count`` (and the sum that a ``verify`` sweep) may enumerate.
_ORACLE_POINT_BUDGET = 10**9
# Most candidate points the oracle holds per level of its enumeration.
_BLOCK = 1 << 16


def oracle_count(info: RootSystemInfo, a: int, b: int, q: int) -> int:
    """#{x in (Z/q)^l : alpha . x != k (mod q) for all positive roots alpha
    and all integers k in [a, b]}; b = a - 1 denotes the empty arrangement.

    A count of points, with no algebra: the x_i = (alpha_i, x) are fixed one
    at a time, a prefix is dropped once a root whose last nonzero simple-root
    coefficient c was just fixed lands in F = {k mod q : a <= k <= b}, and all
    q values of x_i are settled by rows of T_c[u, x] = [(u + c x) mod q in F].
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

    C = np.array([r.coords for r in positive_roots(info)], dtype=np.int64)
    last = np.array([np.flatnonzero(r)[-1] for r in C])  # last nonzero coordinate
    C, last = C[last.argsort(kind="stable")], np.sort(last)
    width = min(q, _BLOCK)  # values of one coordinate per chunk
    rows = max(1, _BLOCK // width)  # prefixes per block
    # ext[u] = [u mod q in F]; F is a cyclic interval of at most q residues
    ext = np.zeros(q + int(C.max()) * width, dtype=bool)
    start, size = a % q, min(b - a + 1, q)
    ext[start : start + size] = ext[: max(0, start + size - q)] = True
    ext[q:] = np.resize(ext[:q], len(ext) - q)
    # zero-copy views T[c][u, t] = ext[u + c t] = T_c[u, t]
    T = {c: as_strided(ext, (q, width), (1, c)) for c in set(C.ravel().tolist()) - {0}}

    def count(D, j):  # D[k]: partial dot mod q of the k-th root not settled before x_j
        lo, hi = np.searchsorted(last, [j, j + 1])
        alive = 0
        for x0 in range(0, q, width):
            w = min(width, q - x0)
            xc = (C[hi:, j, None] * np.arange(x0, x0 + w) % q).astype(np.int32)
            for i in range(0, D.shape[1], rows):
                blk = D[:, i : i + rows]
                bad = np.zeros((blk.shape[1], w), dtype=bool)
                for k in range(lo, hi):
                    c, u = int(C[k, j]), blk[k - lo]  # T_c[u, x0 + t] = T_c[u + c x0, t]
                    bad |= T[c][(u + c * x0 % q) % q if x0 else u, :w]
                if j == ell - 1:
                    alive += bad.size - int(np.count_nonzero(bad))
                    continue
                pi, xi = np.nonzero(~bad)
                alive += count((blk[hi - lo :, pi] + xc[:, xi]) % q, j + 1)
        return alive

    return count(np.zeros((len(C), 1), dtype=np.int32), 0)


def verify_main_theorem(info: RootSystemInfo, n: int) -> bool:
    """chi_quasi == R_Phi(Sbar^(n+1)) applied to the tilde-average of L at
    gcd(n+1, rho), and the minimal period divides gcd(n+1, rho)."""
    g = math.gcd(n + 1, info.period_rho)
    lhs = char_quasi(info, n)
    averaged = tilde(ehrhart_quasi(info), g)
    rhs = apply_Sbar(averaged, OperatorPoly(generalized_eulerian(info), stride=n + 1))
    return lhs == rhs and g % minimal_period(lhs).period == 0


def _power_sums(m: int, k: int, width: int) -> dict[int, list[int]]:
    """``{a: [P_e for e < width]}``, P_e = sum of u^e over u < m, u = a (mod k),
    in O(width^2) per class for any m: with u = a + k j, j < J, P_e is
    sum_i C(e, i) a^(e-i) k^i S_i, and S_i = sum_{j<J} j^i solves
    J^(i+1) = sum_{t<=i} C(i+1, t) S_t."""
    C = [[math.comb(e, i) for i in range(e + 1)] for e in range(width + 1)]
    out = {}
    for a in range(min(k, m)):
        J, S = (m - a + k - 1) // k, []
        for i in range(width):
            S.append((J ** (i + 1) - sum(c * v for c, v in zip(C[i + 1], S))) // (i + 1))
        out[a] = [
            sum(c * a ** (e - i) * k**i * S[i] for i, c in enumerate(C[e])) for e in range(width)
        ]
    return out


def _apply_block_product(start: QuasiPoly, block: int, strides: list[int]) -> QuasiPoly:
    """Apply prod_j (1/block) [block]_{S^{s_j}} to ``start`` in one kernel pass.

    The product shifts by sum_j s_j u_j, u_j < block independent, so its
    moment table is the factors' tables convolved.  With n = start's minimal
    period, factor j moves class a mod n' = n / gcd(s_j, n) of the power sums
    of u < block to class s_j a mod n, times (-s_j)^e; sums are kept per n'.
    """
    if block == 1:
        return start
    f = minimal_period(start)
    n, width = f.period, len(f.rows[0])
    sums, tables = {}, []
    for s in strides:
        k = n // math.gcd(s, n)
        if k not in sums:
            sums[k] = _power_sums(block, k, width)
        factor = {s * a % n: [v * (-s) ** e for e, v in enumerate(p)] for a, p in sums[k].items()}
        tables.append(factor)
    table = _convolve(tables, n, width)
    den, rows = _operator_rows(f, table, block ** len(strides), range(n))
    return _make(n, den, rows)


def verify_corollary1(info: RootSystemInfo, n: int) -> bool:
    """chi_quasi(n) from chi_quasi(g - 1), g = gcd(n+1, rho), through the
    block product prod_j (1/m-hat) [m-hat]_{S^(c_j g)}, m-hat = (n+1)/g, applied
    in one moment pass (``_apply_block_product``)."""
    g = math.gcd(n + 1, info.period_rho)
    mhat = (n + 1) // g
    base = char_quasi(info, g - 1)
    built = _apply_block_product(base, mhat, [c * g for c in info.marks])
    return built == char_quasi(info, n)


def gcd_prime_polynomial(info: RootSystemInfo, n: int) -> RatPoly:
    """For gcd(n+1, rho) = 1: the polynomial
    prod_j (1/(n+1)) [n+1]_{S^{c_j}} applied to t^l in one moment pass, which
    must equal the (period-1) characteristic quasi-polynomial.  Raises
    PeriodConsistencyError if the product is not a polynomial."""
    if math.gcd(n + 1, info.period_rho) != 1:
        raise ValueError("requires gcd(n+1, rho) = 1")
    start = QuasiPoly.from_poly(RatPoly.monomial(info.rank))
    built = minimal_period(_apply_block_product(start, n + 1, list(info.marks)))
    if built.period != 1:
        raise PeriodConsistencyError(f"block product has period {built.period}, not 1")
    return built.constituents[0]


def verify_rad_theorem(info: RootSystemInfo, n: int) -> bool:
    """Characteristic polynomial at level gcd(n+1, rho) - 1 from the one at
    level gcd(n+1, rad(rho)) - 1 through the block product
    prod_j (1/eta) [eta]_{S^(c_j g_rad)}, eta = g / g_rad, applied in one
    moment pass.  At eta = 1 both sides are one polynomial and this holds
    trivially; ``linial verify`` then omits the check."""
    g = math.gcd(n + 1, info.period_rho)
    gr = math.gcd(n + 1, info.rad_rho)
    eta = g // gr
    target = char_poly(info, g - 1)
    start = QuasiPoly.from_poly(char_poly(info, gr - 1))
    built = _apply_block_product(start, eta, [c * gr for c in info.marks])
    built = minimal_period(built)
    return built.period == 1 and built.constituents[0] == target


def verify_shift_relation(info: RootSystemInfo, n: int, k: int, q: int) -> bool:
    """Window-shift consistency at a modulus q coprime to rho: the [1, n]
    count at q must equal chi(q), and the [1-k, n+k] count must equal
    chi(q - k h).  Raises ValueError when the two counts together, 2 q^l
    points, exceed ``_ORACLE_POINT_BUDGET``."""
    if math.gcd(q, info.period_rho) != 1:
        raise ValueError("q must be coprime to rho")
    if 2 * q**info.rank > _ORACLE_POINT_BUDGET:
        raise ValueError(
            f"2 x {q}^{info.rank} points exceed the oracle budget {_ORACLE_POINT_BUDGET}"
        )
    chi = char_poly(info, n)
    if oracle_count(info, 1, n, q) != chi(q):
        return False
    return oracle_count(info, 1 - k, n + k, q) == chi(q - k * info.coxeter_h)
