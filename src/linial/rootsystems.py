"""Catalog of irreducible root systems and generated combinatorial data.

The per-type data are the marks and the Cartan matrix.  The Coxeter number,
the period rho = lcm of the marks, its radical and the index of connection
f (the number of marks equal to 1; Bourbaki, Lie Groups, Ch. VI) follow from
the marks.  Positive roots are the closure of the simple roots under the
simple reflections, and Weyl groups (small rank only) the breadth-first
closure of the identity under them.

Coordinates are always in the simple-root basis: a root is the integer
vector (m_1, ..., m_l) with alpha = sum m_j alpha_j.  The Cartan matrix is
stored as A[i][j] = <alpha_i, alpha_j-coroot>, so the reflection s_j acts by
beta -> beta - (sum_i beta_i A[i][j]) e_j.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "RootSystemInfo",
    "PositiveRoot",
    "WeylElement",
    "GroupTooLargeError",
    "catalog",
    "positive_roots",
    "highest_root",
    "weyl_elements",
    "weyl_group_order",
    "CLI_LABELS",
]

#: Labels advertised on the command line (any valid label is accepted).
CLI_LABELS = ("A3", "B4", "C3", "D4", "E6", "E7", "E8", "F4", "G2")


@dataclass(frozen=True)
class RootSystemInfo:
    label: str
    rank: int
    marks: tuple[int, ...]  # c_0..c_l, ascending (c_0 = 1)
    distinct_marks: tuple[tuple[int, int], ...]  # (c-hat, l-hat) pairs
    coxeter_h: int
    period_rho: int
    rad_rho: int
    cartan: tuple[tuple[int, ...], ...]
    index_f: int


class PositiveRoot(NamedTuple):
    coords: tuple[int, ...]


class WeylElement(NamedTuple):
    simple_images: tuple[tuple[int, ...], ...]
    signs: tuple[bool, ...]  # sign of w(alpha_i), i = 0..l (index 0: -highest root)


class GroupTooLargeError(RuntimeError):
    pass


def _path_cartan(rank: int) -> list[list[int]]:
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
        if i + 1 < rank:
            a[i][i + 1] = a[i + 1][i] = -1
    return a


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if family == "A":
        a = _path_cartan(rank)
    elif family == "B":
        a = _path_cartan(rank)
        a[rank - 2][rank - 1] = -2  # last simple root short
    elif family == "C":
        a = _path_cartan(rank)
        a[rank - 1][rank - 2] = -2  # last simple root long
    elif family == "D":
        a = _path_cartan(rank)  # then move the last node from node l-1 to l-2
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif family == "E":
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            a[i][j] = a[j][i] = -1
    elif family == "F":
        a = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    elif family == "G":
        a = [[2, -3], [-1, 2]]
    else:  # pragma: no cover
        raise ValueError(family)
    return tuple(tuple(row) for row in a)


def _marks(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return (1,) * (rank + 1)
    if family in ("B", "C"):
        return (1, 1) + (2,) * (rank - 1)
    if family == "D":
        return (1, 1, 1, 1) + (2,) * (rank - 3)
    return {
        "E6": (1, 1, 1, 2, 2, 2, 3),
        "E7": (1, 1, 2, 2, 2, 3, 3, 4),
        "E8": (1, 2, 2, 3, 3, 4, 4, 5, 6),
        "F4": (1, 2, 2, 3, 4),
        "G2": (1, 2, 3),
    }[family + str(rank)]


_LABEL_RE = re.compile(r"^([A-G])_?([0-9]+)$")


@lru_cache(maxsize=None)
def catalog(label: str) -> RootSystemInfo:
    """Table-of-root-systems record for a label like "E6", "A3", "B8" (rank <= 8)."""
    m = _LABEL_RE.match(label.strip().upper())
    if not m:
        raise ValueError(f"unrecognized root system label: {label!r}")
    family, rank = m.group(1), int(m.group(2))
    limits = {
        "A": 1 <= rank <= 8,
        "B": 2 <= rank <= 8,
        "C": 2 <= rank <= 8,
        "D": 4 <= rank <= 8,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }
    if not limits[family]:
        raise ValueError(f"rank {rank} out of range for family {family}")
    marks = tuple(sorted(_marks(family, rank)))
    h = sum(marks)
    rho = math.lcm(*marks)
    rad = math.prod(  # the primes dividing rho
        p for p in range(2, rho + 1) if rho % p == 0 and all(p % d for d in range(2, p))
    )
    distinct = tuple(
        (c, sum(1 for x in marks if x % c == 0) - 1) for c in sorted(set(marks))
    )
    cartan = _cartan_matrix(family, rank)
    return RootSystemInfo(
        label=f"{family}{rank}",
        rank=rank,
        marks=marks,
        distinct_marks=distinct,
        coxeter_h=h,
        period_rho=rho,
        rad_rho=rad,
        cartan=cartan,
        index_f=marks.count(1),
    )


def _reflect(beta: tuple[int, ...], j: int, cartan) -> tuple[int, ...]:
    c = sum(b * cartan[i][j] for i, b in enumerate(beta) if b)
    if not c:
        return beta
    out = list(beta)
    out[j] -= c
    return tuple(out)


@lru_cache(maxsize=None)
def positive_roots(info: RootSystemInfo) -> tuple[PositiveRoot, ...]:
    """All positive roots, generated level-by-level from the simple roots.

    Each new level reflects the last one in every simple root and keeps the
    positive images.  This is complete: s_j permutes the positive roots other
    than alpha_j, and every non-simple positive root is s_j of a positive
    root of lower height for some j.
    """
    rank = info.rank
    cartan = info.cartan
    simple = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    found: set[tuple[int, ...]] = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for beta in level:
            for j in range(rank):
                t = _reflect(beta, j, cartan)
                if t not in found and min(t) >= 0:
                    found.add(t)
                    nxt.append(t)
        level = nxt
    ordered = sorted(found, key=lambda v: (sum(v), v))
    return tuple(PositiveRoot(v) for v in ordered)


def highest_root(info: RootSystemInfo) -> tuple[int, ...]:
    return positive_roots(info)[-1].coords


def weyl_group_order(info: RootSystemInfo) -> int:
    """|W| = l! * f * c_1 * ... * c_l (Bourbaki, Lie Groups, Ch. VI), with f
    the index of connection and c_i the marks of the highest root."""
    return math.factorial(info.rank) * info.index_f * math.prod(info.marks)


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
    theta = highest_root(info)
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
