"""Counting lattice points in dilated alcoves, three ways.

The generating object behind every formula in this package is L_Phi(q), the
number of nonnegative integer solutions of  c_1 x_1 + ... + c_l x_l <= q
with the type's coefficient vector (c_1, ..., c_l).  We compute it

  1. directly (a small dynamic program over the coefficients),
  2. as a quasi-polynomial interpolated from the series of the rational
     generating function, and
  3. re-assembled from its decomposition by cyclotomic order d, each piece
     the average tilde(L, d) less the pieces of the proper divisors of d,

and confirm all three agree.  The decomposition also exposes the period
structure: the piece for divisor d has period d and a predictable degree.

Run:  python3 demos/alcove_counts.py
"""

from linial.ehrhart import decompose_ehrhart, denumerant_count, ehrhart_quasi
from linial.ratpoly import render_poly
from linial.rootsystems import catalog

for label in ("A2", "B3", "G2", "F4"):
    info = catalog(label)
    L = ehrhart_quasi(info)
    print(f"{label}: coefficients {info.marks[1:]}, period rho = {info.period_rho}")

    q_values = list(range(0, 13))
    direct = [denumerant_count(info, q) for q in q_values]
    from_gf = [L.eval(q) for q in q_values]
    print("  q       :", " ".join(f"{q:4d}" for q in q_values))
    print("  count   :", " ".join(f"{v:4d}" for v in direct))
    assert direct == from_gf, "generating-function route disagrees"
    print("  (generating-series quasi-polynomial agrees on every value)")

    assert L.period == info.period_rho

    parts = decompose_ehrhart(info)
    total = parts[0][1]
    for _, piece in parts[1:]:
        total = total + piece
    assert total == L
    print("  decomposition by divisor (all pieces re-sum to L exactly):")
    for d, piece in parts:
        deg = piece.degree
        deg_txt = str(int(deg)) if deg != float("-inf") else "-inf"
        print(f"    d = {d}: period {piece.period}, degree {deg_txt}")
    print()

# The period-1 part of the decomposition is a polynomial; for A-types it is
# the whole story and reduces to a binomial coefficient.
info = catalog("A4")
L = ehrhart_quasi(info)
print("A4:", render_poly(L.constituents[0]), "   = C(q+4, 4)")
