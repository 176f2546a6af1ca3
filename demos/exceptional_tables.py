"""Reproduce the characteristic-polynomial tables for E6, F4, E7, E8.

Same content as `linial table <TYPE> --n-list ...`, but unrolled by hand so
the narrative is visible: build the polynomial for each n, factor out the
expected vertical line Re z = n*h/2, and report both the numeric root check
and the exact symmetric-part certificate.

Run:  python3 demos/exceptional_tables.py
"""

import time
from fractions import Fraction

from linial.arrangements import char_poly
from linial.ratpoly import render_poly
from linial.rootline import verify_line
from linial.rootsystems import catalog

PLAN = [
    ("E6", (1, 2, 5)),
    ("F4", (1, 2, 5)),
    ("E7", (1, 2, 5)),
    ("E8", (1, 2, 4, 5, 9, 14, 29)),
]

started = time.monotonic()
for label, n_values in PLAN:
    info = catalog(label)
    print(f"\n=== {label}  (h = {info.coxeter_h}) ===")
    for n in n_values:
        p = char_poly(info, n)
        line = Fraction(n * info.coxeter_h, 2)
        rep = verify_line(p, line)
        mark = "exact" if rep.sturm_exact else "numeric only"
        print(f"n = {n}:")
        print(f"    {render_poly(p)}")
        print(
            f"    all roots on Re z = {line}  "
            f"(max |Re z - {line}| / max(1, |z - {line}|) = {rep.max_deviation:.3g}, {mark})"
        )

print(f"\nTotal: {time.monotonic() - started:.2f}s")
