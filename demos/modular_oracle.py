"""The mod-q counting oracle, and exactly when the formula matches it.

oracle_count(info, 1, n, q) counts points x in (Z/q)^l whose pairing with
every positive root avoids {1, ..., n} mod q — point by point, with no
algebra: the coordinates are fixed one at a time and a partial point is
dropped as soon as a root it already determines lands in the window.
The characteristic quasi-polynomial reproduces this count once q clears the
window, q >= n(h-1); below that threshold the two genuinely differ, because
the formula is the *eventual* counting polynomial.

This script prints both sides across a sweep of q so you can watch them
lock together exactly at the threshold.  It ends with the one E7 count
inside the agreement regime, n = 1 at q = 17 (17^7 ~ 4.1e8 points, about
a second): 17 is odd, so the count is the value of the E7 n=1 characteristic
polynomial, the frozen row in tests/golden_tables.py.

Run:  python3 demos/modular_oracle.py
"""

from linial.arrangements import char_quasi, oracle_agreement_bound, oracle_count
from linial.rootsystems import catalog

for label, n in (("A2", 2), ("B2", 2), ("G2", 1)):
    info = catalog(label)
    chi = char_quasi(info, n)
    bound = oracle_agreement_bound(info, n)
    print(f"{label}, n = {n}  (h = {info.coxeter_h}, threshold n(h-1) = {bound})")
    print("      q   formula   count   ")
    for q in range(1, bound + 5):
        formula = chi.eval(q)
        count = oracle_count(info, 1, n, q)
        marker = "  <-- agree from here on" if q == bound else ""
        flag = " " if formula == count else "*"
        print(f"  {flag}{q:4d}  {int(formula):8d}  {count:6d}{marker}")
    print()

print("Rows marked * disagree; all of them sit below the threshold.")
print()

# The period also shows up in the oracle: for G2 (rho = 6) and n = 1 the
# count depends on q mod 2 once q is large enough, matching the two
# constituents of the quasi-polynomial.
info = catalog("G2")
chi = char_quasi(info, 1)
print("G2, n = 1, the two residue classes of the quasi-polynomial:")
for q in range(6, 14):
    print(f"   q = {q:2d} ({q % 2} mod 2): {int(chi.eval(q)):5d}")

# E7, n = 1: h = 18, so the count equals the formula from q = 17 on, and
# 17 = 1 mod 2 picks the constituent that is the characteristic polynomial.
info = catalog("E7")
chi = char_quasi(info, 1)
count = oracle_count(info, 1, 1, 17)
print()
print(f"E7, n = 1, q = 17 (17^7 = {17**7} points, threshold {oracle_agreement_bound(info, 1)}):")
print(f"   formula {int(chi.eval(17))}, count {count}: "
      f"{'equal' if chi.eval(17) == count else 'DIFFERENT'}")
