"""edgedpp: numerical verification lab for edge universality of
elliptic Ginibre-type determinantal point processes on C^d.

The package evaluates the exact finite-n correlation kernel by two
independent representations (the degree sum, by a recurrence from
Mehler's formula, and a single contour integral), provides the droplet
geometry and saddle-point machinery the contour route rests on, and
implements the asymptotic edge predictors (erfc density profile,
Faddeeva plasma kernel) that the verification harness checks against the
exact evaluations.
"""

from .errors import (
    ConsistencyError,
    ContourError,
    DegenerateCoordinatesError,
    DegenerateFitError,
    DegenerateSaddleError,
    DomainError,
    EdgeDppError,
    QuadratureError,
    UsageError,
)
from .special import LogMagnitudePhase, erfc_complex, erfcx_complex

__all__ = [
    "ConsistencyError",
    "ContourError",
    "DegenerateCoordinatesError",
    "DegenerateFitError",
    "DegenerateSaddleError",
    "DomainError",
    "EdgeDppError",
    "LogMagnitudePhase",
    "QuadratureError",
    "UsageError",
    "erfc_complex",
    "erfcx_complex",
]

__version__ = "0.1.0"
