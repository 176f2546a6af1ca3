"""Catalog data, positive-root generation, Weyl group closure."""

from fractions import Fraction

import pytest

from conftest import ALL_TYPES
from linial.rootsystems import catalog, positive_roots
from reference_algebra import GroupTooLargeError, weyl_elements, weyl_group_order

# label -> (marks incl. the extra 1, h, rho, rad_rho, f), recorded from the
# hand-kept period table and the Cartan determinant that the catalog used
# before it derived these from the marks
TABLE = {
    "A1": ((1, 1), 2, 1, 1, 2),
    "A2": ((1, 1, 1), 3, 1, 1, 3),
    "A3": ((1, 1, 1, 1), 4, 1, 1, 4),
    "A4": ((1, 1, 1, 1, 1), 5, 1, 1, 5),
    "A5": ((1, 1, 1, 1, 1, 1), 6, 1, 1, 6),
    "A6": ((1, 1, 1, 1, 1, 1, 1), 7, 1, 1, 7),
    "A7": ((1, 1, 1, 1, 1, 1, 1, 1), 8, 1, 1, 8),
    "A8": ((1, 1, 1, 1, 1, 1, 1, 1, 1), 9, 1, 1, 9),
    "B2": ((1, 1, 2), 4, 2, 2, 2),
    "B3": ((1, 1, 2, 2), 6, 2, 2, 2),
    "B4": ((1, 1, 2, 2, 2), 8, 2, 2, 2),
    "B5": ((1, 1, 2, 2, 2, 2), 10, 2, 2, 2),
    "B6": ((1, 1, 2, 2, 2, 2, 2), 12, 2, 2, 2),
    "B7": ((1, 1, 2, 2, 2, 2, 2, 2), 14, 2, 2, 2),
    "B8": ((1, 1, 2, 2, 2, 2, 2, 2, 2), 16, 2, 2, 2),
    "C2": ((1, 1, 2), 4, 2, 2, 2),
    "C3": ((1, 1, 2, 2), 6, 2, 2, 2),
    "C4": ((1, 1, 2, 2, 2), 8, 2, 2, 2),
    "C5": ((1, 1, 2, 2, 2, 2), 10, 2, 2, 2),
    "C6": ((1, 1, 2, 2, 2, 2, 2), 12, 2, 2, 2),
    "C7": ((1, 1, 2, 2, 2, 2, 2, 2), 14, 2, 2, 2),
    "C8": ((1, 1, 2, 2, 2, 2, 2, 2, 2), 16, 2, 2, 2),
    "D4": ((1, 1, 1, 1, 2), 6, 2, 2, 4),
    "D5": ((1, 1, 1, 1, 2, 2), 8, 2, 2, 4),
    "D6": ((1, 1, 1, 1, 2, 2, 2), 10, 2, 2, 4),
    "D7": ((1, 1, 1, 1, 2, 2, 2, 2), 12, 2, 2, 4),
    "D8": ((1, 1, 1, 1, 2, 2, 2, 2, 2), 14, 2, 2, 4),
    "E6": ((1, 1, 1, 2, 2, 2, 3), 12, 6, 6, 3),
    "E7": ((1, 1, 2, 2, 2, 3, 3, 4), 18, 12, 6, 2),
    "E8": ((1, 2, 2, 3, 3, 4, 4, 5, 6), 30, 60, 30, 1),
    "F4": ((1, 2, 2, 3, 4), 12, 12, 6, 1),
    "G2": ((1, 2, 3), 6, 6, 6, 1),
}


def reference_det(matrix):
    """Exact determinant by Fraction elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    assert det.denominator == 1
    return int(det)


def reference_positive_roots(cartan):
    """Positive roots by the root-string closure, sorted by (height, coords).

    For each root beta and simple direction j, beta + alpha_j is a root iff
    q = p - <beta, alpha_j-coroot> > 0, where p is how far the root string
    extends downward.
    """
    rank = len(cartan)
    simple = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    found = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for beta in level:
            for j in range(rank):
                c = sum(b * cartan[i][j] for i, b in enumerate(beta))
                p = 0
                down = list(beta)
                while True:
                    down[j] -= 1
                    if down[j] < 0 or tuple(down) not in found:
                        break
                    p += 1
                if p - c > 0:
                    up = list(beta)
                    up[j] += 1
                    t = tuple(up)
                    if t not in found:
                        found.add(t)
                        nxt.append(t)
        level = nxt
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_index_f_is_cartan_determinant(label):
    info = catalog(label)
    assert info.index_f == reference_det(info.cartan)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_positive_roots_match_root_string_closure(label):
    info = catalog(label)
    assert positive_roots(info) == reference_positive_roots(info.cartan)


@pytest.mark.parametrize("label", sorted(TABLE))
def test_catalog_pinned_rows(label):
    marks, h, rho, rad, f = TABLE[label]
    info = catalog(label)
    assert tuple(info.marks) == marks
    assert info.coxeter_h == h
    assert info.period_rho == rho
    assert info.rad_rho == rad
    assert info.index_f == f


@pytest.mark.parametrize("label", ALL_TYPES)
def test_catalog_internal_consistency(label):
    info = catalog(label)
    assert info.marks[0] == 1
    assert sum(info.marks) == info.coxeter_h
    assert len(info.marks) == info.rank + 1
    assert len(info.cartan) == info.rank


def test_label_parsing():
    assert catalog("B_3") == catalog("B3")
    for bad in ("H3", "B1", "C1", "D3", "E9", "E5", "F5", "G3", "A0", "X2", "B",
                "A9", "B9", "C9", "D9"):
        with pytest.raises(ValueError):
            catalog(bad)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_positive_root_count(label):
    info = catalog(label)
    roots = positive_roots(info)
    assert len(roots) == info.rank * info.coxeter_h // 2
    assert len(set(roots)) == len(roots)
    for r in roots:
        assert all(m >= 0 for m in r) and any(r)


def test_positive_roots_A2():
    info = catalog("A2")
    assert set(positive_roots(info)) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_highest_root_matches_marks(label):
    # the highest root is dominant, and with 1 its coefficients are the marks
    # pinned in TABLE
    info = catalog(label)
    top = positive_roots(info)[-1]
    assert tuple(sorted((1,) + top)) == TABLE[label][0]
    for j in range(info.rank):
        assert sum(t * row[j] for t, row in zip(top, info.cartan)) >= 0


# The highest root in the catalogue's numbering of the simple roots, which is
# Bourbaki's except for G2 (long root first); pins the Dynkin diagram wiring.
EXCEPTIONAL_HIGHEST_ROOTS = {
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (2, 3),
}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_highest_root_coords_exact(label):
    family, ell = label[0], int(label[1:])
    expected = {
        "A": (1,) * ell,
        "B": (1,) + (2,) * (ell - 1),
        "C": (2,) * (ell - 1) + (1,),
        "D": (1,) + (2,) * (ell - 3) + (1, 1),
    }.get(family) or EXCEPTIONAL_HIGHEST_ROOTS[label]
    assert positive_roots(catalog(label))[-1] == expected


WEYL_ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "A4": 120,
    "A5": 720,
    "B2": 8,
    "B3": 48,
    "B4": 384,
    "C2": 8,
    "C3": 48,
    "C4": 384,
    "D4": 192,
    "D5": 1920,
    "G2": 12,
    "F4": 1152,
}

# too large to enumerate in a unit test; the cap check relies on the formula
LARGE_WEYL_ORDERS = {
    "A8": 362880,
    "B8": 10321920,
    "C8": 10321920,
    "D8": 5160960,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_weyl_group_order(label):
    info = catalog(label)
    elements = weyl_elements(info)
    assert len(elements) == WEYL_ORDERS[label]
    assert weyl_group_order(info) == WEYL_ORDERS[label]


@pytest.mark.parametrize("label", sorted(LARGE_WEYL_ORDERS))
def test_weyl_group_order_formula_large(label):
    assert weyl_group_order(catalog(label)) == LARGE_WEYL_ORDERS[label]


def test_weyl_sign_vectors():
    info = catalog("A2")
    elements = weyl_elements(info)
    # identity: every simple root positive, the lowest root negative
    identity = next(e for e in elements if e.simple_images == ((1, 0), (0, 1)))
    assert identity.signs == (False, True, True)
    # the longest element flips everything
    assert any(e.signs == (True, False, False) for e in elements)


def test_weyl_cap():
    with pytest.raises(GroupTooLargeError):
        weyl_elements(catalog("E8"))


def test_catalog_record():
    # the record's repr, hash and field names
    info = catalog("G2")
    assert repr(info) == (
        "RootSystemInfo(label='G2', rank=2, marks=(1, 2, 3), coxeter_h=6, period_rho=6, "
        "rad_rho=6, cartan=((2, -3), (-1, 2)), index_f=1)"
    )
    assert repr(catalog("B3")) == (
        "RootSystemInfo(label='B3', rank=3, marks=(1, 1, 2, 2), coxeter_h=6, period_rho=2, "
        "rad_rho=2, cartan=((2, -1, 0), (-1, 2, -2), (0, -1, 2)), index_f=2)"
    )
    assert (info.label, info.rank, info.marks, info.coxeter_h) == ("G2", 2, (1, 2, 3), 6)
    assert (info.period_rho, info.rad_rho, info.index_f) == (6, 6, 1)
    assert info.cartan == ((2, -3), (-1, 2))
    assert len({catalog(label) for label in ALL_TYPES}) == len(ALL_TYPES)
    assert hash(catalog("g_2")) == hash(info) and catalog("g_2") == info
    with pytest.raises(AttributeError):
        info.rank = 3

