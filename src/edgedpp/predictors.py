"""Edge predictors: the erfc density profile (edge_density_terms), the
higher-dimensional Faddeeva plasma kernel and the bulk limit.  The
two-term expansion of the normalized kernel itself, in every d and every
0 <= tau < 1, is saddle.asymptotic_I_tau of the displacements saddle.delta_pm.

The central normalized object is

    L = c_n(z, u) conj(c_n(z, v)) pi^d exp((|u|^2+|v|^2)/2 - u.v)
        K_n(sqrt(n) z + u, sqrt(n) z + v)

for a boundary point z, with unimodular gauge cofactors c_n that cancel
in every determinant.  L equals the pole-normalized contour value N
exactly (not just asymptotically), which gives two independent
evaluation routes; normalized_kernel computes both and records their
discrepancy (route B through contour.normalized_integral_many).  As n grows,

    L = 1/2 erfc((u.n + n.v)/sqrt 2) + O(1/sqrt n)

with n the outward unit normal, and on the diagonal the density profile

    n^d rho_1(sqrt(n) z + lambda n)
      = d!/(2 pi^d) erfc(sqrt 2 lambda)
        + (kappa/sqrt n) d!/(3 pi^d sqrt(2 pi))
          (lambda^2 - 1 - 3 tau^2 (d-1)/((1-tau^2) kappa^{2/3})) e^{-2 lambda^2}
        + O(1/n).

The (d-1) coefficient and the overall 1/sqrt(n) normalization were fixed
against the exact kernel (see tests); they differ from some printed forms
of these expansions by a factor 2 and by the sign/scale of the (d-1)
term.  The cofactor below is likewise the one that makes the two routes
agree to rounding:

    c_n(z, u) = exp(i tau/2 Im(u^2) - i sqrt(n) Im(u . (z - tau conj z))).

The expansions stop at the 1/sqrt(n) order; the O(1/n) term of the d = 1
density profile involves arclength derivatives of kappa and is out of
scope here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .contour import normalized_integral_many
from .errors import ConsistencyError, DomainError, UsageError
from .geometry import EdgePoint
from .kernel import ModelParams, _as_points, as_point, kernel_exact_log_many
from .special import LogMagnitudePhase, erfc_complex

__all__ = [
    "NormalizedKernelSample",
    "dot_product",
    "gaussian_normalizer_log",
    "cofactor_cn",
    "normalized_kernel",
    "normalized_kernel_many",
    "edge_kernel_prediction",
    "edge_density_terms",
    "bulk_prediction",
]

# Largest relative gap between the two routes of normalized_kernel; both
# are exact, so anything past rounding is a defect.
_ROUTE_GAP_TOL = 1e-6


@dataclass(frozen=True)
class NormalizedKernelSample:
    """Cofactor- and Gaussian-normalized kernel value with route diagnostics."""

    L: complex
    z: EdgePoint
    u: np.ndarray
    v: np.ndarray
    n: int
    route_gap: float


def dot_product(x: np.ndarray, y: np.ndarray) -> complex:
    """Dot product x . y = sum_k x_k conj(y_k)."""
    return complex(np.sum(np.asarray(x) * np.conj(np.asarray(y))))


def _vec_square(x: np.ndarray) -> complex:
    """Analytic square sum x^2 = sum_k x_k^2 (no conjugation)."""
    return complex(np.sum(np.asarray(x) ** 2))


def cofactor_cn(tau: float, n: int, z, u) -> complex:
    """Unimodular gauge cofactor c_n(z, u).

    exp(i tau/2 Im(u^2)) exp(-i sqrt(n) Im(u . (z - tau conj z))); identically
    the phase that cancels the oscillating part of the weight/phase product,
    so that the normalized kernel L is route independent.  At tau = 0 it
    reduces to exp(-i sqrt(n) Im(u . z)), the usual Ginibre cocycle.
    """
    if not (0.0 <= tau < 1.0):
        raise DomainError(f"tau must lie in [0, 1), got {tau}")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    m = z - tau * np.conj(z)
    f = math.sqrt(n) * dot_product(u, m).imag - 0.5 * tau * _vec_square(u).imag
    return cmath.exp(-1j * f)


def gaussian_normalizer_log(d: int, u: np.ndarray, v: np.ndarray) -> complex:
    """log of pi^d exp((|u|^2+|v|^2)/2 - u.v), as a complex exponent."""
    uu = float(np.sum(np.abs(u) ** 2))
    vv = float(np.sum(np.abs(v) ** 2))
    return d * math.log(math.pi) + 0.5 * (uu + vv) - dot_product(u, v)


def normalized_kernel(params: ModelParams, edge: EdgePoint, u, v) -> NormalizedKernelSample:
    """The normalized kernel L at a boundary point, by both routes.

    Route A: exact kernel at the scaled arguments times cofactors and the
    Gaussian normalizer.  Route B: the pole-normalized contour value.  The
    two agree identically in exact arithmetic; a relative gap beyond
    1e-6 raises ConsistencyError.  The returned L is the route B value.
    normalized_kernel_many for one triple.
    """
    return normalized_kernel_many(params, [edge], as_point(params, u)[None], as_point(params, v)[None])[0]


def normalized_kernel_many(params: ModelParams, edges, us, vs) -> list[NormalizedKernelSample]:
    """normalized_kernel at every (edge, u, v) triple, in order: route A's
    exact kernels from one kernel_exact_log_many call, route B's contour
    values from one normalized_integral_many call, which raises the error
    of its first refusing triple.  Then the first triple whose routes
    disagree raises ConsistencyError.
    """
    z, us, vs = _as_points(params, [edge.z for edge in edges], us, vs)
    tau, n, d = params.tau, params.n, params.d
    rn = math.sqrt(n)
    exact = kernel_exact_log_many(params, rn * z + us, rn * z + vs)
    route_b = normalized_integral_many(params, z, us, vs)
    out = []
    for edge, u, v, k, b in zip(edges, us, vs, exact, route_b):
        cof = cofactor_cn(tau, n, edge.z, u) * np.conj(cofactor_cn(tau, n, edge.z, v))
        route_a = (
            k
            * LogMagnitudePhase.from_log(gaussian_normalizer_log(d, u, v))
            * LogMagnitudePhase.from_complex(complex(cof))
        )
        gap = abs(route_a.ratio_to(b) - 1.0)
        if gap > _ROUTE_GAP_TOL:
            raise ConsistencyError(
                f"normalized kernel routes disagree: relative gap {gap:.3e} (n={n}, d={d}, tau={tau})"
            )
        out.append(NormalizedKernelSample(L=b.value, z=edge, u=u, v=v, n=n, route_gap=gap))
    return out


def edge_kernel_prediction(edge: EdgePoint, u, v) -> complex:
    """Leading Faddeeva plasma value 1/2 erfc((u.n + n.v)/sqrt 2)."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    s = dot_product(u, edge.normal) + dot_product(edge.normal, v)
    return 0.5 * erfc_complex(s / math.sqrt(2.0))


def edge_density_terms(params: ModelParams, edge: EdgePoint, lam: float) -> tuple[float, float]:
    """The two terms of the edge density profile for n^d rho_1(sqrt(n) z +
    lambda n), whose sum is the two-term prediction: d!/(2 pi^d) erfc(sqrt 2
    lambda) and (kappa/sqrt n) d!/(3 pi^d sqrt(2 pi)) (lambda^2 - 1 - 3 tau^2
    (d-1)/((1-tau^2) kappa^{2/3})) e^{-2 lambda^2}."""
    d, tau, n = params.d, params.tau, params.n
    kappa = edge.kappa
    fact = math.factorial(d)
    lead = fact / (2.0 * math.pi**d) * erfc_complex(math.sqrt(2.0) * lam).real
    bracket = lam * lam - 1.0 - 3.0 * tau * tau * (d - 1) / ((1.0 - tau * tau) * kappa ** (2.0 / 3.0))
    scale = (kappa / math.sqrt(n)) * fact / (3.0 * math.pi**d * math.sqrt(2.0 * math.pi))
    return lead, scale * bracket * math.exp(-2.0 * lam * lam)


def bulk_prediction(d: int, u, v) -> complex:
    """Bulk scaling limit pi^{-d} exp(u.v - (|u|^2+|v|^2)/2)."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if u.size != d or v.size != d:
        raise UsageError(f"u, v must have {d} coordinates")
    uu = float(np.sum(np.abs(u) ** 2))
    vv = float(np.sum(np.abs(v) ** 2))
    return math.pi ** (-d) * cmath.exp(dot_product(u, v) - 0.5 * (uu + vv))

