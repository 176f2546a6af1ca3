"""Test-side reference algebra, kept out of the package: exact division and
gcd over Q[t], the Taylor shift on rationals, the cyclic slot rotation
sigma, the shift operators S and S-bar by their definitions, through
literal Taylor shifts of the constituents, the characteristic polynomial
through one operator application per n, and the generating-series route
to a quasi-polynomial for any sparse numerator, proper or not.

The package applies every shift operator through one moment kernel
(``quasipoly.apply_S``); these references compute the same things straight
from the definitions, so the tests can compare the two.  The series route
is an independent reference for ``arrangements.char_quasi``: R_Phi(S^(n+1))
L_Phi is the quasi-polynomial of R_Phi(x^(n+1)) / prod (1 - x^{c_i}).
It also converts the partial-fraction pieces of L_Phi in
``test_ehrhart.reference_decompose``, which ``ehrhart.decompose_ehrhart``
takes by Moebius inversion of tilde.  ``reference_char_poly`` applies R_Phi(S^(n+1)) to one slot of
tilde(L_Phi, gcd(n+1, rho)) for each n, where ``arrangements.char_poly``
evaluates one integer family per class of n.  ``power_sum_block_product``
applies a product of block sums one factor at a time from the power sums
of the block, where the package takes the cumulants of their sum.

The Weyl-group enumeration is the independent route to R_Phi:
``generalized_eulerian_by_weyl`` sums t^asc(w) over the whole group, where
``eulerian.generalized_eulerian`` takes the product over the marks.

No command of the package reads the identity suite, so it lives here too:
[c]_t, p(t^m), the congruences modulo (1 - t)^k, the moment test, the gcd
property, the cross-type relations, the window-shift check and |W|.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub
from typing import NamedTuple

from linial.arrangements import _ORACLE_POINT_BUDGET, char_poly, oracle_count
from linial.ehrhart import PeriodConsistencyError, ehrhart_quasi
from linial.eulerian import generalized_eulerian
from linial.quasipoly import OperatorPoly, QuasiPoly, _make, _raw, apply_S, tilde
from linial.ratpoly import RatPoly
from linial.rootsystems import RootSystemInfo, positive_roots

#: The variable ``t`` itself, for building polynomials expression-style.
X = RatPoly((0, 1))


def poly_divmod(f: RatPoly, g: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Exact division with remainder: ``f = q*g + r`` with deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dg = len(g.coeffs) - 1
    lead = g.coeffs[-1]
    q = [Fraction(0)] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = c / lead
        q[i - dg] = factor
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] -= factor * gc
    return RatPoly(q), RatPoly(rem)


def divides(d: RatPoly, g: RatPoly) -> tuple[bool, RatPoly | None]:
    """Whether ``d`` divides ``g`` exactly; quotient returned on success."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = poly_divmod(g, d)
    if r.is_zero:
        return True, q
    return False, None


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q (a nonzero constant gcd is returned as 1)."""
    a, b = f, g
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.scale(1 / a.leading)


def reference_shift_argument(p: RatPoly, a) -> RatPoly:
    """The Taylor shift p(t + a) by Horner's rule on Fractions: starting
    from the leading coefficient, multiply by (t + a) and add the next."""
    a = Fraction(a)
    if a == 0 or p.is_zero:
        return p
    out: list[Fraction] = []
    for c in reversed(p.coeffs):
        # out <- out * (t + a) + c
        nxt = [Fraction(0)] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i + 1] += v
            nxt[i] += a * v
        nxt[0] += c
        out = nxt
    return RatPoly(out)


def cyclotomic_type(c: int) -> RatPoly:
    """Return ``[c]_t = 1 + t + ... + t^(c-1)``; ``[0]_t = 0``."""
    if c < 0:
        raise ValueError("negative block size")
    return RatPoly((1,) * c)


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


def reference_char_poly(info, n: int) -> RatPoly:
    """The main theorem's R_Phi(Sbar^(n+1)) applied to the slot at residue 1
    of tilde(L_Phi, g), g = gcd(n+1, rho), alone; ``apply_S`` reduces its
    output, so that slot may be unreduced.  Sbar shifts without rotating
    slots, so on this period-1 operand Sbar^(n+1) = S^(n+1)."""
    avg = tilde(ehrhart_quasi(info), math.gcd(n + 1, info.period_rho))
    slot = _raw(1, avg.den, (avg.rows[1 % avg.period],))
    op = OperatorPoly(generalized_eulerian(info), stride=n + 1)
    return apply_S(slot, op).constituents[0]


def power_sum_block_product(start: QuasiPoly, block: int, strides) -> QuasiPoly:
    """prod_j (1/m) [m]_{S^{s_j}} on ``start``, m = ``block``, for a start
    whose period divides every stride, at any m: one factor at a time, each
    slot c by Taylor's formula, (1/m) sum_{u<m} c(t - s u) =
    sum_p t^p sum_e C(p+e, e) c_{p+e} (-s)^e P_e / m, with the power sums
    P_e = sum_{u<m} u^e from m^(e+1) = sum_{i<=e} C(e+1, i) P_i.  The
    factor-by-factor ``apply_S`` chain would enumerate all m terms."""
    width = len(start.rows[0])
    P: list[int] = []
    for e in range(width):
        lower = sum(math.comb(e + 1, i) * v for i, v in enumerate(P))
        P.append((block ** (e + 1) - lower) // (e + 1))
    slots = [[Fraction(v, start.den) for v in row] for row in start.rows]
    for s in strides:
        mom = [Fraction((-s) ** e * v, block) for e, v in enumerate(P)]
        slots = [
            [
                sum(math.comb(p + e, e) * c[p + e] * mom[e] for e in range(width - p))
                for p in range(width)
            ]
            for c in slots
        ]
    return QuasiPoly(start.period, [RatPoly(c) for c in slots])


def sigma_pow(f: QuasiPoly, k: int) -> QuasiPoly:
    """The cyclic slot rotation sigma = (1 ... n), k times, at the minimal
    period: new slot r holds old constituent (r - k) mod n."""
    n, cs = f.period, f.constituents
    return QuasiPoly(n, (cs[(r - k) % n] for r in range(n)))


def _taylor_shift(row, s: int) -> list[int]:
    """The coefficients of p(t + s) for the integer polynomial p with
    coefficients ``row`` (lowest degree first), by Horner's rule."""
    out: list[int] = []
    for c in reversed(row):
        # out <- out * (t + s) + c
        out = [u + s * v for u, v in zip([0] + out, out + [0])]
        out[0] += c
    return out


def _shifted_sums(f: QuasiPoly, op, source) -> QuasiPoly:
    """sum_k a_k (slot source(r, m k))(t - m k) at each slot r of f's minimal
    period n, each term a Taylor shift of one constituent's integer row."""
    n, rows, cs = f.period, f.rows, op.coeffs.coeffs
    den = math.lcm(*(a.denominator for a in cs), 1)
    slots = []
    for r in range(n):
        acc = [0] * len(rows[0])
        for k, a in enumerate(cs):
            s = op.stride * k
            if a:
                w = a.numerator * (den // a.denominator)
                shifted = _taylor_shift(rows[source(r, s) % n], -s)
                acc = [u + w * v for u, v in zip(acc, shifted)]
        slots.append(RatPoly(Fraction(v, f.den * den) for v in acc))
    return QuasiPoly(n, slots)


def shift_S(f: QuasiPoly, op) -> QuasiPoly:
    """``sum_k a_k S^(m k)`` by its definition: slot r is
    sum_k a_k (slot (r - m k) mod n)(t - m k)."""
    return _shifted_sums(f, op, lambda r, s: r - s)


def shift_Sbar(f: QuasiPoly, op) -> QuasiPoly:
    """``sum_k a_k Sbar^(m k)``, which shifts each slot's argument without
    rotating slots: slot r is sum_k a_k (slot r)(t - m k)."""
    return _shifted_sums(f, op, lambda r, s: r)


def series_quasi(terms: dict[int, int], den: int, denominator_spec) -> QuasiPoly:
    """The eventual quasi-polynomial of (sum_e terms[e] x^e) / den over
    prod_d (1 - x^d)^mult, for any sparse integer numerator.

    With p = lcm(d) and M = sum(mult), the denominator divides (1 - y)^M,
    y = x^p, so the numerator is reduced mod (1 - y)^M, which changes the
    series by a polynomial only: y^Q becomes (1 + (y - 1))^Q below (y - 1)^M.
    The reduced series is quasi-polynomial from t0 = max(0, deg - sum(d mult)
    + 1) on.  Lane i, residue t0 + i, is the Newton interpolant through
    t0 + i + m p, m < M, in integers over den (M-1)! p^(M-1); it meets the
    spare node m = M iff the M-th difference is zero.  The p lanes go
    through each step together, as lists."""
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
    vals = [series[m.start : m.stop] for m in nodes]
    newton = []  # lane-wise scale * (m-th forward difference) / (m! p^m)
    for m in range(big_m):
        w = scale // (math.factorial(m) * p**m)
        newton.append([v * w for v in vals[0]])
        vals = [list(map(sub, v, u)) for u, v in zip(vals, vals[1:])]
    for i, v in enumerate(vals[0]):
        if v:
            raise PeriodConsistencyError(f"residue {(t0 + i) % p} misses node {nodes[-1][i]}")
    zero = [0] * p
    row = []  # nested form: newton[m] + (t - node_m) * (the terms above m), lane-wise
    for m in range(big_m - 1, -1, -1):
        row = [list(map(sub, u, map(mul, nodes[m], v))) for u, v in zip([zero] + row, row + [zero])]
        row[0] = list(map(add, row[0], newton[m]))
    lanes = list(zip(*row))
    return _make(p, den * scale, [lanes[(r - t0) % p] for r in range(p)])


def series_char_quasi(info, n: int) -> QuasiPoly:
    """R_Phi(S^(n+1)) L_Phi as the quasi-polynomial of the generating series
    R_Phi(x^(n+1)) / prod_{i=0..l} (1 - x^{c_i}), whose numerator
    ``series_quasi`` reduces, so the series stays short at any n."""
    cs = generalized_eulerian(info).coeffs
    den = math.lcm(*(c.denominator for c in cs), 1)
    terms = {(n + 1) * k: c.numerator * (den // c.denominator) for k, c in enumerate(cs)}
    return series_quasi(terms, den, [(c, 1) for c in info.marks])


def has_gcd_property(f: QuasiPoly) -> bool:
    """True iff constituent r coincides with constituent gcd(r, n) for
    r = 1..n, at f's minimal period n.  Any multiple N of n gives the same
    verdict, since gcd(gcd(r, N), n) = gcd(r, n) for n | N."""
    n, rows = f.period, f.rows
    return all(rows[r % n] == rows[math.gcd(r, n) % n] for r in range(1, n + 1))


def generalized_congruence_operator(info: RootSystemInfo, n: int) -> tuple[RatPoly, RatPoly]:
    """Both sides of the R_Phi congruence: lhs = R_Phi(t^n), rhs =
    prod_i (1/n)[n]_{t^(c_i)} * R_Phi(t); congruent mod (1-t)^(l+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = generalized_eulerian(info)
    lhs = compose_power(r, n)
    rhs = r
    for c in info.marks:
        rhs = rhs * compose_power(cyclotomic_type(n), c)
    rhs = rhs.scale(Fraction(1, n ** len(info.marks)))
    return lhs, rhs


def cross_type_relation_check(
    lhs_info: RootSystemInfo,
    operator,
    rhs_info: RootSystemInfo,
    rhs_operator=None,
) -> bool:
    """Whether operator(L of lhs) equals L of rhs (optionally with an
    operator applied on the right-hand side too).  Each operator is a
    sequence of (polynomial, stride) factors, applied one at a time; shift
    operators commute, so their order does not matter."""
    sides = []
    for info, factors in ((lhs_info, operator), (rhs_info, rhs_operator or ())):
        f = ehrhart_quasi(info)
        for coeffs, stride in factors:
            f = apply_S(f, OperatorPoly(coeffs, stride))
        sides.append(f)
    return sides[0] == sides[1]


_S1 = RatPoly((1, -1))
#: The relations between exceptional types for ``cross_type_relation_check``,
#: each (lhs, operator, rhs, rhs operator).
EXCEPTIONAL_RELATIONS = [
    ("E7", [(cyclotomic_type(3), 1), (cyclotomic_type(4), 1), (_S1, 1)], "E6", None),
    (
        "E8",
        [(cyclotomic_type(2), 2), (cyclotomic_type(5), 1), (cyclotomic_type(6), 1), (_S1, 1)],
        "E7",
        None,
    ),
    ("F4", [(cyclotomic_type(2), 1), (cyclotomic_type(4), 1), (_S1, 1), (_S1, 1)], "G2", None),
    ("E6", [(_S1, 1), (_S1, 1)], "F4", [(RatPoly((1, 0, 1)), 1)]),
]


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


def weyl_group_order(info: RootSystemInfo) -> int:
    """|W| = l! * f * c_1 * ... * c_l (Bourbaki, Lie Groups, Ch. VI), with f
    the index of connection and c_i the marks of the highest root."""
    return math.factorial(info.rank) * info.index_f * math.prod(info.marks)


class WeylElement(NamedTuple):
    simple_images: tuple[tuple[int, ...], ...]
    signs: tuple[bool, ...]  # sign of w(alpha_i), i = 0..l (index 0: -highest root)


class GroupTooLargeError(RuntimeError):
    pass


def _reflect(beta: tuple[int, ...], j: int, cartan) -> tuple[int, ...]:
    c = sum(b * cartan[i][j] for i, b in enumerate(beta) if b)
    if not c:
        return beta
    out = list(beta)
    out[j] -= c
    return tuple(out)


# Largest Weyl group that ``weyl_elements`` enumerates.
_WEYL_CAP = 200000


@lru_cache(maxsize=None)
def weyl_elements(info: RootSystemInfo) -> tuple[WeylElement, ...]:
    """Every Weyl group element, as the tuple of images of the simple roots,
    by breadth-first closure; raises GroupTooLargeError, before enumerating,
    when the group order exceeds ``_WEYL_CAP``.

    Each element also records the signs of w(alpha_i) for i = 0..l, where
    alpha_0 = -(highest root).
    """
    order = weyl_group_order(info)
    if order > _WEYL_CAP:
        raise GroupTooLargeError(f"Weyl group of {info.label} has order {order} > {_WEYL_CAP}")
    rank = info.rank
    cartan = info.cartan
    theta = positive_roots(info)[-1]
    identity = tuple(tuple(int(i == j) for i in range(rank)) for j in range(rank))
    seen: dict[tuple, None] = {identity: None}
    queue = [identity]
    while queue:
        nxt = []
        for w in queue:
            for j in range(rank):
                new = tuple(_reflect(v, j, cartan) for v in w)
                if new not in seen:
                    seen[new] = None
                    nxt.append(new)
        queue = nxt

    # a root's coordinates share one sign, so its sign is that of its height;
    # height is linear, so height(w(theta)) = sum_i theta_i height(w(alpha_i))
    elements = []
    for w in seen:
        heights = [sum(v) for v in w]
        theta_height = sum(t * h for t, h in zip(theta, heights))
        signs = (theta_height < 0,) + tuple(h > 0 for h in heights)
        elements.append(WeylElement(w, signs))
    return tuple(elements)


def generalized_eulerian_by_weyl(info: RootSystemInfo) -> RatPoly:
    """R_Phi(t) summed over the Weyl group: (1/f) sum_w t^asc(w).

    The mark attached to alpha_i must follow the simple-root numbering, so
    the coefficient vector is (1, highest-root coordinates), not the sorted
    marks tuple.
    """
    cs = (1,) + positive_roots(info)[-1]
    counts: dict[int, int] = {}
    for el in weyl_elements(info):
        a = 0
        for c, positive in zip(cs, el.signs):
            if positive:
                a += c
        counts[a] = counts.get(a, 0) + 1
    coeffs = [Fraction(0)] * (max(counts) + 1)
    for a, cnt in counts.items():
        coeffs[a] = Fraction(cnt, info.index_f)
    return RatPoly(coeffs)
