"""Lattice-point counting for fundamental alcoves and the generating-function
machinery that turns rational series into quasi-polynomials.

``L(q)`` counts x in Z^l (all coordinates >= 0) with c_1 x_1 + ... + c_l x_l
<= q, where the c_i are the marks; its generating series is
1 / prod_{i=0..l} (1 - x^{c_i}) (the extra c_0 = 1 factor accumulates the
inequality).  One routine turns such a series, over any sparse numerator,
into its quasi-polynomial: the numerator is reduced mod (1 - x^p)^M, p the
period and M the number of factors, so the series it expands stays shorter
than p (2M + 1) whatever the numerator's degree; then all p residue classes
are Newton-interpolated together, lane-wise, on integers over one common
denominator, with a spare node per class as a consistency check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub

from .quasipoly import QuasiPoly, OperatorPoly, _make, apply_S, minimal_period, sorted_divisors
from .ratpoly import RatPoly, poly_divmod, poly_gcd
from .rootsystems import RootSystemInfo

__all__ = [
    "PeriodConsistencyError",
    "denumerant_count",
    "denumerant_count_slow",
    "ehrhart_quasi",
    "series_to_quasipoly",
    "partial_fractions",
    "cyclotomic_factor",
    "decompose_ehrhart",
    "cross_type_relation_check",
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
    n = max(length, 2 * len(cached) if cached else 0)
    a = [0] * n
    a[0] = 1
    for c in marks:
        for j in range(c, n):
            a[j] += a[j - c]
    _SERIES_CACHE[marks] = a
    return a


def denumerant_count(info: RootSystemInfo, q: int) -> int:
    """#{x in Z^l, x >= 0 : sum c_i x_i <= q} by exact series expansion."""
    if q < 0:
        raise ValueError("q must be >= 0")
    return _alcove_series(info.marks, q + 1)[q]


def denumerant_count_slow(info: RootSystemInfo, q: int) -> int:
    """Reference implementation: literal nested loops over x_l..x_1.

    Exponential in rank * q; only for cross-checking the series version on
    small instances.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    cs = info.marks[1:]  # drop c_0

    def rec(i: int, rem: int) -> int:
        if i == len(cs):
            return 1
        c = cs[i]
        return sum(rec(i + 1, rem - c * x) for x in range(rem // c + 1))

    return rec(0, q)


# -- interpolation -----------------------------------------------------------


@lru_cache(maxsize=None)
def ehrhart_quasi(info: RootSystemInfo) -> QuasiPoly:
    """The alcove Ehrhart quasi-polynomial: degree = rank, period = rho
    (= lcm of the marks), from the series 1 / prod_{i=0..l} (1 - x^{c_i})."""
    return series_to_quasipoly(RatPoly.one(), [(c, 1) for c in info.marks])


def series_to_quasipoly(
    numerator: RatPoly, denominator_spec: list[tuple[int, int]]
) -> QuasiPoly:
    """Quasi-polynomial whose generating series is
    numerator / prod_d (1 - x^d)^mult, given as (d, mult) pairs, for a proper
    numerator: its coefficients over their common denominator go through the
    lane-wise integer interpolation of ``_series_quasi``."""
    if not denominator_spec or numerator.degree >= sum(d * m for d, m in denominator_spec):
        raise ValueError("improper rational function")
    nden = math.lcm(*(c.denominator for c in numerator.coeffs), 1)
    terms = {i: c.numerator * (nden // c.denominator) for i, c in enumerate(numerator.coeffs)}
    return _series_quasi(terms, nden, denominator_spec)


def _series_quasi(terms: dict[int, int], den: int, denominator_spec) -> QuasiPoly:
    """The eventual quasi-polynomial of (sum_e terms[e] x^e) / den over
    prod_d (1 - x^d)^mult, for any sparse integer numerator.

    With p = lcm(d) and M = sum(mult), the denominator divides (1 - y)^M,
    y = x^p, so the numerator is reduced mod (1 - y)^M, which changes the
    series by a polynomial only: y^Q becomes (1 + (y - 1))^Q below (y - 1)^M.
    The reduced series is quasi-polynomial from t0 = max(0, deg - sum(d mult)
    + 1) on.  Lane i, residue t0 + i, is the Newton interpolant through
    t0 + i + m p, m < M, in integers over den (M-1)! p^(M-1), checked at the
    spare node m = M; the p lanes go through each step together, as lists."""
    p = math.lcm(*(d for d, _ in denominator_spec))
    big_m = sum(mult for _, mult in denominator_spec)
    num: dict[int, int] = {}
    for e, a in terms.items():
        q, r = divmod(e, p)
        if q < big_m:
            num[e] = num.get(e, 0) + a
            continue
        for j in range(big_m):
            c = a * math.comb(q, j) * math.comb(q - j - 1, big_m - 1 - j)
            num[r + p * j] = num.get(r + p * j, 0) + (-c if (big_m - 1 - j) % 2 else c)
    deg = max((e for e, a in num.items() if a), default=0)
    t0 = max(0, deg - sum(d * mult for d, mult in denominator_spec) + 1)
    series = [num.get(e, 0) for e in range(t0 + p * (big_m + 1))]
    for d, mult in denominator_spec:
        for _ in range(mult):
            for r in range(d):
                series[r::d] = accumulate(series[r::d])
    scale = math.factorial(big_m - 1) * p ** (big_m - 1)
    nodes = [range(t0 + m * p, t0 + (m + 1) * p) for m in range(big_m + 1)]
    vals = [series[m.start : m.stop] for m in nodes[:-1]]
    newton = []  # lane-wise scale * (m-th forward difference) / (m! p^m)
    for m in range(big_m):
        w = scale // (math.factorial(m) * p**m)
        newton.append([v * w for v in vals[0]])
        vals = [list(map(sub, v, u)) for u, v in zip(vals, vals[1:])]
    zero = [0] * p
    row = []  # nested form: newton[m] + (t - node_m) * (the terms above m), lane-wise
    for m in range(big_m - 1, -1, -1):
        row = [list(map(sub, u, map(mul, nodes[m], v))) for u, v in zip([zero] + row, row + [zero])]
        row[0] = list(map(add, row[0], newton[m]))
    value = zero
    for c in reversed(row):
        value = list(map(add, map(mul, value, nodes[-1]), c))
    for i, (v, s) in enumerate(zip(value, series[nodes[-1].start :])):
        if v != s * scale:
            raise PeriodConsistencyError(f"residue {(t0 + i) % p} misses node {nodes[-1][i]}")
    lanes = list(zip(*row))
    return _make(p, den * scale, [lanes[(r - t0) % p] for r in range(p)])


# -- partial fractions ---------------------------------------------------------


def partial_fractions(numerator: RatPoly, factors: list[RatPoly]) -> list[RatPoly]:
    """Numerators g_i with sum_i g_i * prod_{j != i} f_j = numerator and
    deg g_i < deg f_i, for pairwise-coprime factors; exact linear solve."""
    degs = [f.degree for f in factors]
    if any(f.is_zero or f.degree < 1 for f in factors):
        raise ValueError("factors must be non-constant")
    if numerator.degree >= sum(degs):
        raise ValueError("improper rational function")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if poly_gcd(factors[i], factors[j]).degree > 0:
                raise ValueError("factors are not pairwise coprime")

    cofactors = []
    for i in range(len(factors)):
        acc = RatPoly.one()
        for j, f in enumerate(factors):
            if j != i:
                acc = acc * f
        cofactors.append(acc)

    size = sum(degs)
    # columns: one unknown per coefficient t^k of each g_i
    cols = []
    for i, f in enumerate(factors):
        for k in range(f.degree):
            shifted = RatPoly.monomial(k) * cofactors[i]
            cols.append([shifted.coeff(row) for row in range(size)])
    rhs = [numerator.coeff(row) for row in range(size)]

    # Gaussian elimination with partial pivoting, exact over Q
    mat = [[cols[c][r] for c in range(size)] + [rhs[r]] for r in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            raise RuntimeError("singular partial-fraction system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(size):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    solution = [mat[r][size] for r in range(size)]

    out = []
    pos = 0
    for f in factors:
        out.append(RatPoly(solution[pos : pos + f.degree]))
        pos += f.degree
    return out


# -- cyclotomic grouping -------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_factor(d: int) -> RatPoly:
    """The factor of 1 - x^c attached to primitive d-th roots of unity,
    normalized to constant term 1: psi_1 = 1 - x, psi_d = Phi_d for d >= 2,
    so that 1 - x^c = prod_{d | c} psi_d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return RatPoly((1, -1))
    # Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e, with Phi_1 = x - 1
    num = RatPoly.monomial(d) - RatPoly.one()
    den = RatPoly((-1, 1))  # Phi_1
    for e in sorted_divisors(d)[1:-1]:
        den = den * cyclotomic_factor(e)
    quotient, rem = poly_divmod(num, den)
    assert rem.is_zero
    return quotient


def decompose_ehrhart(info: RootSystemInfo) -> list[tuple[int, QuasiPoly]]:
    """Split L into one quasi-polynomial piece per cyclotomic order d,
    where d runs over the divisors of the marks (= the distinct marks for
    every catalog type); the piece for d has period dividing d and degree
    at most (multiplicity of d) - 1.  Pieces sum pointwise to L."""
    orders = sorted({e for c in info.marks for e in sorted_divisors(c)})
    mult = {d: sum(1 for c in info.marks if c % d == 0) for d in orders}

    factors = [cyclotomic_factor(d) ** mult[d] for d in orders]
    check = RatPoly.one()
    for f in factors:
        check = check * f
    target = RatPoly.one()
    for c in info.marks:
        target = target * (RatPoly.one() - RatPoly.monomial(c))
    assert check == target, "cyclotomic grouping failed to recombine"

    numerators = partial_fractions(RatPoly.one(), factors)
    parts = []
    for d, g in zip(orders, numerators):
        # convert g / psi_d^m to the (1 - x^d)^m denominator
        conv = RatPoly.one()
        for e in sorted_divisors(d):
            if e != d:
                conv = conv * cyclotomic_factor(e)
        num = g * conv**mult[d]
        part = series_to_quasipoly(num, [(d, mult[d])])
        parts.append((d, minimal_period(part)))
    return parts


def _apply_factors(f, operator):
    """Apply an operator given either as a single OperatorPoly or as a
    sequence of (polynomial, stride) factors, one factor at a time.
    Shift operators commute, so the order of factors does not matter."""
    if isinstance(operator, OperatorPoly):
        return apply_S(f, operator)
    for coeffs, stride in operator:
        f = apply_S(f, OperatorPoly(coeffs, stride))
    return f


def cross_type_relation_check(
    lhs_info: RootSystemInfo,
    operator,
    rhs_info: RootSystemInfo,
    rhs_operator=None,
) -> bool:
    """Whether operator(L of lhs) equals L of rhs (optionally with an
    operator applied on the right-hand side too).  Operators may be a
    single OperatorPoly or a sequence of (polynomial, stride) factors."""
    lhs = _apply_factors(ehrhart_quasi(lhs_info), operator)
    rhs = ehrhart_quasi(rhs_info)
    if rhs_operator is not None:
        rhs = _apply_factors(rhs, rhs_operator)
    return lhs == rhs
