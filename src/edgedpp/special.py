"""Complex error functions and overflow-safe accumulation primitives.

erfc and its scaled companion erfcx(z) = exp(z^2) erfc(z) are evaluated on
all of C by three regimes:

* Maclaurin series of erf in the strip Re z <= 1.4, |Im z| < 6, where
  the series keeps full relative accuracy (the result never falls far
  below the size of the summands there).
* The Laplace continued fraction for erfcx in the rest of the right
  half-plane, evaluated with the modified Lentz scheme.  Past |Im z| = 6
  the series would multiply exp(z^2), which underflows, by 1 - erf(z),
  which overflows; the fraction stays within 2e-15 of the reference
  there, down to Re z = 0.
* Reflection formulas erfc(-z) = 2 - erfc(z) and
  erfcx(-z) = 2 exp(z^2) - erfcx(z) for the left half-plane.

The strip boundary was placed by equating the empirical error curves of
the two regimes against extended-precision references on a dense grid
over |z| <= 10: the series error grows like |z| exp(2 (Re z)^2) ulp
while the continued fraction stays below 5e-15 for Re z >= 0.9, so any
boundary in [1.0, 1.6] keeps the worst relative error under 1e-14.

LogMagnitudePhase represents a complex quantity as exp(log_mag) * phase
with |phase| = 1, so magnitudes of order exp(+-n F) with n in the
thousands stay representable.  stable_sum_arrays adds such quantities by
shifting out the largest exponent and adding the shifted values with
numpy's pairwise summation.  Each shifted value already carries about eps
of rounding from exp, so the sum errs by about eps times the L1 norm of
the terms in any order; the pairwise tree adds at most about log2(N) eps
times that norm (Higham, SIAM J. Sci. Comput. 14, 1993), the same floor
the contour route's cancellation guard measures.

gauss_legendre caches the Gauss-Legendre rules of the saddle quadratures.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "LogMagnitudePhase",
    "erfc_complex",
    "erfcx_complex",
    "gauss_legendre",
    "stable_sum_arrays",
]

_SQRT_PI = math.sqrt(math.pi)

# Regime boundaries for erfc/erfcx on Re z >= 0 (empirical, see module docstring).
_SERIES_STRIP = 1.4
_SERIES_MAX_IMAG = 6.0
_CF_MAX_ITER = 400


def _require_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def _erf_series(z: complex) -> complex:
    """Maclaurin series of erf, summed until terms fall below 1e-20 relative."""
    z2 = z * z
    term = z
    total = z
    k = 0
    # term_{k+1} = -term_k * z^2 * (2k+1) / ((k+1)(2k+3))
    while True:
        k += 1
        term *= -z2 * (2 * k - 1) / (k * (2 * k + 1))
        total += term
        if abs(term) <= 1e-20 * abs(total) + 1e-300:
            break
        if k > 1000:  # pragma: no cover - series converges long before this
            break
    return total * (2.0 / _SQRT_PI)


def _erfcx_continued_fraction(z: complex) -> complex:
    """Laplace continued fraction for erfcx, modified Lentz evaluation.

    sqrt(pi) erfcx(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...)))),
    valid for Re z > 0 and accurate away from the imaginary axis.
    """
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0 + 0.0j
    for j in range(1, _CF_MAX_ITER + 1):
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = z + a * d
        if d == 0:
            d = tiny
        c = z + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f / _SQRT_PI
    # Fall back on the series; it converges everywhere, just more slowly.
    return cmath.exp(z * z) * (1.0 - _erf_series(z))


def _in_series_regime(z: complex) -> bool:
    return z.real <= _SERIES_STRIP and abs(z.imag) < _SERIES_MAX_IMAG


def erfc_complex(z: complex) -> complex:
    """Complementary error function erfc(z) = 1 - erf(z) on C."""
    z = _require_finite(z)
    if z.real < 0.0:
        return 2.0 - erfc_complex(-z)
    if _in_series_regime(z):
        return 1.0 - _erf_series(z)
    return cmath.exp(-z * z) * _erfcx_continued_fraction(z)


def erfcx_complex(z: complex) -> complex:
    """Scaled complementary error function erfcx(z) = exp(z^2) erfc(z)."""
    z = _require_finite(z)
    if z.real < 0.0:
        return 2.0 * cmath.exp(z * z) - erfcx_complex(-z)
    if _in_series_regime(z):
        return cmath.exp(z * z) * (1.0 - _erf_series(z))
    return _erfcx_continued_fraction(z)


@dataclass(frozen=True)
class LogMagnitudePhase:
    """A complex number exp(log_mag) * phase with unit-modulus phase.

    log_mag may be -inf (exact zero).  The constructor normalizes the
    phase; a zero phase is only legal together with log_mag = -inf.
    """

    log_mag: float
    phase: complex

    def __post_init__(self) -> None:
        mag = abs(self.phase)
        if not math.isfinite(self.log_mag) and self.log_mag > 0:
            raise DomainError("log_mag must not be +inf or nan")
        if math.isnan(self.log_mag):
            raise DomainError("log_mag must not be nan")
        if mag == 0.0:
            if self.log_mag != -math.inf:
                raise DomainError("zero phase requires log_mag = -inf")
            object.__setattr__(self, "phase", 1.0 + 0.0j)
        elif abs(mag - 1.0) > 1e-12:
            object.__setattr__(self, "log_mag", self.log_mag + math.log(mag))
            object.__setattr__(self, "phase", self.phase / mag)
        else:
            object.__setattr__(self, "phase", complex(self.phase) / mag)

    @classmethod
    def from_complex(cls, value: complex) -> "LogMagnitudePhase":
        value = complex(value)
        mag = abs(value)
        if mag == 0.0:
            return cls(-math.inf, 1.0 + 0.0j)
        return cls(math.log(mag), value / mag)

    @classmethod
    def from_shifted(cls, shift: float, total: complex) -> "LogMagnitudePhase":
        """exp(shift) * total; a zero total is an exact zero."""
        if total == 0:
            return cls(-math.inf, 1.0 + 0.0j)
        size = abs(total)
        return cls(shift + math.log(size), total / size)

    @classmethod
    def from_log(cls, log_value: complex) -> "LogMagnitudePhase":
        """Build exp(log_value) for a complex exponent."""
        log_value = complex(log_value)
        return cls(log_value.real, cmath.exp(1j * log_value.imag))

    @property
    def value(self) -> complex:
        """Collapse to an ordinary complex; a component that exceeds the float range is +-inf."""
        if self.log_mag == -math.inf:
            return 0.0 + 0.0j
        if self.log_mag > 709.0:
            return _exp_times(self.log_mag, self.phase)
        return math.exp(self.log_mag) * self.phase

    def __mul__(self, other: "LogMagnitudePhase") -> "LogMagnitudePhase":
        if not isinstance(other, LogMagnitudePhase):
            return NotImplemented
        if self.log_mag == -math.inf or other.log_mag == -math.inf:
            return LogMagnitudePhase(-math.inf, 1.0 + 0.0j)
        return LogMagnitudePhase(self.log_mag + other.log_mag, self.phase * other.phase)

    def scaled(self, factor: complex) -> "LogMagnitudePhase":
        """Multiply by an ordinary complex factor."""
        return self * LogMagnitudePhase.from_complex(factor)

    def ratio_to(self, other: "LogMagnitudePhase") -> complex:
        """self / other as an ordinary complex; a component that exceeds the float range is +-inf."""
        if other.log_mag == -math.inf:
            raise UsageError("ratio against an exact zero")
        if self.log_mag == -math.inf:
            return 0.0 + 0.0j
        diff = self.log_mag - other.log_mag
        if diff > 709.0:
            return _exp_times(diff, self.phase / other.phase)
        return math.exp(diff) * self.phase / other.phase


def _exp_times(x: float, c: complex) -> complex:
    """exp(x) c for x > 709 by four factors exp(x / 4), whose partial products grow from |c|:
    a component is +-inf only where it overflows, as every nonzero one does from x = 1456 on."""
    h = math.exp(min(x, 1456.0) / 4)
    return complex(c.real * h * h * h * h, c.imag * h * h * h * h)


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def stable_sum_arrays(log_mags: np.ndarray, phases: np.ndarray) -> LogMagnitudePhase:
    """Sum of the terms phases_i e^{log_mags_i} (phases unit complex) with
    max-shift normalization.

    The largest log magnitude M is subtracted, the shifted values
    phase_i * exp(log_mag_i - M) are added by numpy's pairwise sum, and M
    is restored.  The result errs by at most about (log2(N) + 16) eps times
    the L1 norm of the terms, so it is permutation stable to that level.
    """
    log_mags = np.asarray(log_mags, dtype=float)
    phases = np.asarray(phases, dtype=complex)
    if log_mags.size == 0:
        raise UsageError("stable_sum_arrays requires a non-empty sequence")
    if not (log_mags < math.inf).all():  # nan or +inf
        raise DomainError("log magnitudes must be < +inf and not nan")
    shift = float(np.max(log_mags))
    if shift == -math.inf:
        return LogMagnitudePhase(-math.inf, 1.0 + 0.0j)
    return LogMagnitudePhase.from_shifted(shift, complex(np.sum(phases * np.exp(log_mags - shift))))
