"""Catalog of irreducible root systems and generated combinatorial data.

The only per-type datum is the Dynkin diagram, which gives the Cartan
matrix.  Positive roots are the closure of the simple roots under the simple
reflections; the marks are 1 and the coefficients of the highest root.  The
Coxeter number, the period rho = lcm of the marks, its radical and the index
of connection f (the number of marks equal to 1; Bourbaki, Lie Groups,
Ch. VI) follow from the marks.

Coordinates are always in the simple-root basis: a root is the integer
vector (m_1, ..., m_l) with alpha = sum m_j alpha_j, numbered as in
Bourbaki's plates except G2, whose long root comes first (highest root
(2, 3)).  The Cartan matrix is stored as A[i][j] = <alpha_i, alpha_j-coroot>,
so the reflection s_j acts by beta -> beta - (sum_i beta_i A[i][j]) e_j.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "RootSystemInfo",
    "catalog",
    "positive_roots",
    "CLI_LABELS",
]

#: Labels advertised on the command line (any valid label is accepted).
CLI_LABELS = ("A3", "B4", "C3", "D4", "E6", "E7", "E8", "F4", "G2")


class RootSystemInfo(NamedTuple):
    label: str
    rank: int
    marks: tuple[int, ...]  # c_0..c_l, ascending (c_0 = 1)
    coxeter_h: int
    period_rho: int
    rad_rho: int
    cartan: tuple[tuple[int, ...], ...]
    index_f: int


_MULTIPLE_BOND = {"B": (-2, -1, 2), "C": (-1, -2, 2), "F": (1, 2, 2), "G": (0, 1, 3)}


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of the Dynkin diagram: simple bonds (i, j) along a
    path (D moves its last one, E has its own), and at most one multiple bond
    (i, j, k) from a long root i to a short root j, which sets A[i][j] = -k
    (``_MULTIPLE_BOND``; negative indices count back from the last node)."""
    edges = [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        edges[-1] = (rank - 3, rank - 1)
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3), (5, 6), (6, 7)][: rank - 1]
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    if family in _MULTIPLE_BOND:
        i, j, k = _MULTIPLE_BOND[family]
        a[i][j] = -k
    return tuple(tuple(row) for row in a)


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
    cartan = _cartan_matrix(family, rank)
    marks = tuple(sorted((1,) + _closure(cartan)[-1]))  # 1 and the highest root
    rho = math.lcm(*marks)
    rad = math.prod(  # the primes dividing rho
        p for p in range(2, rho + 1) if rho % p == 0 and all(p % d for d in range(2, p))
    )
    return RootSystemInfo(
        label=f"{family}{rank}",
        rank=rank,
        marks=marks,
        coxeter_h=sum(marks),
        period_rho=rho,
        rad_rho=rad,
        cartan=cartan,
        index_f=marks.count(1),
    )


@lru_cache(maxsize=None)
def _closure(cartan) -> tuple[tuple[int, ...], ...]:
    """The positive roots of ``cartan`` in (height, coords) order, so the
    highest root is last.  Each root is kept with its pairings
    c_j = <beta, alpha_j-coroot>, and each c_j < 0 raises it to s_j beta =
    beta - c_j alpha_j, whose pairings add -c_j times row j.  From the simple
    roots up this is complete: every non-simple positive root is s_j of a
    positive root of lower height whose j-th pairing is negative."""
    rank = len(cartan)
    level = {tuple(int(i == j) for i in range(rank)): cartan[j] for j in range(rank)}
    found = dict(level)
    while level:
        nxt = {}
        for beta, pairs in level.items():
            for j, c in enumerate(pairs):
                if c < 0:
                    t = beta[:j] + (beta[j] - c,) + beta[j + 1 :]
                    if t not in found:
                        found[t] = nxt[t] = tuple(p - c * a for p, a in zip(pairs, cartan[j]))
        level = nxt
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


def positive_roots(info: RootSystemInfo) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, by (height, coords)."""
    return _closure(info.cartan)
