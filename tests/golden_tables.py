"""Frozen reference values for characteristic polynomials.

Coefficients are ascending (constant term first).  The rows are this
package's own output, frozen as regression data; ACCEPTANCE 1 re-derives
them through the ``table`` command on every run.

Independent backing differs per row.  The mod-q count (``oracle_count``)
equals the formula only at moduli q >= n(h-1), over q^rank points, and each
count checks one value of the polynomial, not its coefficients:

* E6 n=1 and F4 n=1: counted at q = 11 (``GOLDEN_SPOT_CHECKS`` in
  test_arrangements.py), F4 n=1 also at q = 11..14 and F4 n=2 at
  q = 22..25 (``test_oracle_matches_formula_in_agreement_regime``).  The
  row's own polynomial is the constituent there at q = 11 (E6 n=1), q = 11
  and 13 (F4 n=1), and q = 22, 23 and 25 (F4 n=2).
* E6 n=2 at q = 22 (22^6 ~ 1.1e8 points) and F4 n=5 at q = 55 (55^4 ~
  9.2e6): the row's polynomial, evaluated at q, equals the count
  (``test_golden_row_against_oracle`` in test_arrangements.py).  Both q
  are 1 modulo the period, so the row is the constituent there.
* E7 n=1 at q = 17 (17^7 ~ 4.1e8 points, about a second): counted by
  ``demos/modular_oracle.py``, which prints formula and count; the suite
  does not run it, to stay within its time budget.
* E6 n=5 (55^6 ~ 2.8e10), E7 n=2 and n=5 (34^7 ~ 5.3e10 and more) and every
  E8 row (at least 29^8 ~ 5e11) exceed the oracle's budget of 1e9 points
  and are not counted.

The rows without a count rest on exact checks inside the package instead:
the root-line certificate (ACCEPTANCE 2: parity of the shifted polynomial
plus a Sturm count put every root on Re z = nh/2), the shift-operator
identities for each type at every n <= 2 rho (ACCEPTANCE 6, which covers
every row here), and the checks of the two inputs, the alcove Ehrhart
quasi-polynomial against direct lattice counts (ACCEPTANCE 4) and its
coprime constituents against the exponents, and the weighted Eulerian
polynomial against its Weyl-group statistic (ACCEPTANCE 7, F4 only here)
and as the one solution of R(S) L = t^l (every type, in test_eulerian.py).
These confirm the computation is consistent with itself
and with the conjecture; they do not count points.
"""

GOLDEN = {
    "E6": [
        (1, [211992, -140076, 40185, -6480, 630, -36, 1]),
        (2, [9474200, -3396672, 528600, -46080, 2400, -72, 1]),
        (5, [1762474040, -271143900, 18019065, -666000, 14550, -180, 1]),
    ],
    "F4": [
        (1, [2917, -1368, 258, -24, 1]),
        (2, [41572, -10176, 1000, -48, 1]),
        (5, [1361989, -143160, 5986, -120, 1]),
    ],
    "E7": [
        (1, [-29798253, 15154251, -3417309, 446355, -36855, 1953, -63, 1]),
        (2, [-2490427440, 687202712, -84088368, 5948040, -264600, 7476, -126, 1]),
        (5, [-1097517119625, 130052291075, -6808068225, 204937635, -3850875, 45465, -315, 1]),
    ],
    "E8": [
        (1, [21918282249, -7583286600, 1181603220, -108901800, 6540030, -264600, 7140, -120, 1]),
        (2, [3426392186728, -643164643200, 54385106720, -2716963200, 88161360, -1915200, 27440, -240, 1]),
        (4, [642465923287416, -63918602553600, 2857900896480, -75249457920, 1281219408, -14515200, 107520, -480, 1]),
        (5, [3577184806486057, -288505461225000, 10449830016500, -222698637000, 3065453790, -28035000, 167300, -600, 1]),
        (9, [347373804233610441, -15957853314798600, 328758988903380, -3977954041320, 31018986558, -160234200, 538020, -1080, 1]),
        (14, [11227745283721390816, -335521093135065600, 4493170619530880, -35307879102720, 178602069408, -597643200, 1297520, -1680, 1]),
        (29, [3597446896074261934441, -52494228716611434600, 343011765319289780, -1314003597910920, 3236633286558, -5266510200, 5550020, -3480, 1]),
    ],
}
