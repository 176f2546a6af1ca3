"""Shift-operator calculus for Linial-type arrangement polynomials.

The package computes characteristic quasi-polynomials of the deformed
reflection arrangements with hyperplane offsets 1..n, for every irreducible
root system, entirely in exact rational arithmetic.  The engine is a small
calculus of shift operators acting on quasi-polynomials: the alcove lattice
count supplies the quasi-polynomial, a weighted Eulerian-style polynomial
supplies the operator, and their pairing gives the characteristic polynomial.
A numeric root finder plus an exact real-rootedness certificate check that
all roots lie on the expected vertical line.
"""

# Each module's ``__all__`` is its public API; ``__all__`` below lists the
# names the package documents.
from .arrangements import *  # noqa: F403
from .ehrhart import *  # noqa: F403
from .eulerian import *  # noqa: F403
from .quasipoly import *  # noqa: F403
from .ratpoly import *  # noqa: F403
from .rootline import *  # noqa: F403
from .rootsystems import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "CLI_LABELS",
    "GroupTooLargeError",
    "OperatorPoly",
    "PeriodConsistencyError",
    "PositiveRoot",
    "QuasiPoly",
    "RatPoly",
    "RootReport",
    "RootSystemInfo",
    "WeylElement",
    "X",
    "apply_S",
    "apply_Sbar",
    "catalog",
    "char_poly",
    "char_quasi",
    "compose_power",
    "congruent_mod_power",
    "cross_type_relation_check",
    "cyclotomic_type",
    "decompose_ehrhart",
    "denumerant_count",
    "divides",
    "ehrhart_quasi",
    "eulerian",
    "eulerian_congruence_check",
    "find_roots",
    "gcd_prime_polynomial",
    "generalized_congruence_operator",
    "generalized_eulerian",
    "generalized_eulerian_by_weyl",
    "has_gcd_property",
    "highest_root",
    "minimal_period",
    "moment_divisibility",
    "oracle_agreement_bound",
    "oracle_count",
    "poly_divmod",
    "poly_gcd",
    "positive_roots",
    "quasipoly_to_json",
    "render_poly",
    "series_to_quasipoly",
    "shift_argument",
    "sigma_pow",
    "tilde",
    "verify_corollary1",
    "verify_line",
    "verify_main_theorem",
    "verify_rad_theorem",
    "verify_shift_relation",
    "weyl_elements",
]
