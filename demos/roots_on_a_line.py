"""Where do the roots actually live?

For gcd(n+1, rho) = 1 the characteristic polynomial of the deformed
arrangement is an honest polynomial, and its complex roots all sit on the
vertical line Re z = n*h/2 — a functional-equation fact, not a numerical
accident.  This script makes that visible: it prints the roots for a few
cases, then shows the two halves of the verification,

  (a) numeric: find the roots (Aberth iteration on the polynomial
      shifted exactly onto the line, which is the centroid of its roots)
      and measure the worst horizontal deviation relative to the centred
      root's size, max |Re z - n*h/2| / max(1, |z - n*h/2|), and
  (b) exact: substitute z = s + n*h/2, check the odd part vanishes, and
      count real roots of the symmetric part with a Sturm chain.

Run:  python3 demos/roots_on_a_line.py
"""

from fractions import Fraction

from linial.arrangements import char_poly
from linial.ratpoly import render_poly
from linial.rootline import verify_line
from linial.rootsystems import catalog

CASES = [("A2", 3), ("B3", 2), ("G2", 4), ("F4", 1), ("E6", 1), ("E8", 1)]

for label, n in CASES:
    info = catalog(label)
    p = char_poly(info, n)
    line = Fraction(n * info.coxeter_h, 2)
    print(f"{label}, n = {n}:  {render_poly(p)}")
    print(f"  expected line: Re z = {line} = {float(line)}")
    rep = verify_line(p, line)
    for z in rep.roots:
        print(f"    z = {z.real:+.12f} {z.imag:+.12f}i")
    print(
        f"  numeric: max relative deviation {rep.max_deviation:.3g}   "
        f"exact: odd part vanishes = {rep.symmetry_exact}, "
        f"Sturm count full = {rep.sturm_exact}"
    )
    print()

# A deliberate counterexample: t^2 - 5t + 4 = (t-1)(t-4) is symmetric about
# 5/2 but its roots are real, so they are ON the real axis, not the vertical
# line.  The Sturm half of the certificate is what catches this.
from linial.ratpoly import RatPoly

q = RatPoly((4, -5, 1))
rep = verify_line(q, Fraction(5, 2))
print("counterexample (t-1)(t-4) against Re z = 5/2:")
print(f"  symmetric about the line: {rep.symmetry_exact}  (it is)")
print(f"  certificate passes:       {rep.sturm_exact}  (it must not)")
