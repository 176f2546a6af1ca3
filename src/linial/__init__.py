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

import sys as _sys

from .arrangements import *  # noqa: F403
from .ehrhart import *  # noqa: F403
from .eulerian import *  # noqa: F403
from .quasipoly import *  # noqa: F403
from .ratpoly import *  # noqa: F403
from .rootline import *  # noqa: F403
from .rootsystems import *  # noqa: F403

__version__ = "0.1.0"

# The package's names are the union of its modules' ``__all__``.  The modules
# are looked up in sys.modules because the star import above rebinds the name
# ``eulerian`` from its module to the function of that name.
__all__ = sorted(
    name
    for module in "arrangements ehrhart eulerian quasipoly ratpoly rootline rootsystems".split()
    for name in _sys.modules[f"{__name__}.{module}"].__all__
)
