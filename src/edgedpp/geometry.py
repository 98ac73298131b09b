"""Droplet geometry, elliptic coordinates, and the saddle-point frame.

The rescaled particle density concentrates on the ellipsoid

    E_tau^d = { z in C^d : (1-tau)/(1+tau) |Re z|^2
                         + (1+tau)/(1-tau) |Im z|^2 < 1 },

whose boundary carries the outward unit normal and the curvature-type
quantity kappa entering every edge expansion.  A boundary point z maps to
the planar ellipse point |Re z| + i |Im z|, written in elliptic
coordinates as sqrt(2) cosh(xi_tau + i eta) / sqrt(sinh 2 xi_tau) with
xi_tau = log(1/tau) / 2.

For kernel arguments (sqrt(n) z + u, sqrt(n) z + v) the saddle-point
analysis uses the pair z_plus, z_minus built from the analytic square sums
of the coordinates, the displacement measures Delta_plus, Delta_minus, and
the phase function (the contour route's G(t) - log t at s = tau t)

    F(s) = s/(1+s) (z_+ + z_-)^2 / 2 - s/(1-s) (z_+ - z_-)^2 / 2
           - log s + log tau,

whose four simple saddle points a, 1/a, b, 1/b have closed forms.  All
square roots and logarithms use the principal branch; quantities that
downstream code consumes depend only on (z_+ +- z_-)^2 and are therefore
branch free, which the tests assert explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateCoordinatesError,
    DegenerateSaddleError,
    DomainError,
    UsageError,
)
from .kernel import ModelParams, as_point

__all__ = [
    "Classification",
    "EdgePoint",
    "DeltaPair",
    "PhaseFunction",
    "SaddleFrame",
    "droplet_classify",
    "edge_point",
    "edge_point_sample",
    "outward_normal",
    "curvature_kappa",
    "xi_for_tau",
    "zpm_map",
    "delta_pm",
    "saddle_points",
    "saddle_frame",
]

_SQRT2 = math.sqrt(2.0)


class Classification(Enum):
    INSIDE = "inside"
    EDGE = "edge"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class EdgePoint:
    """A droplet boundary point with its normal, curvature, and elliptic angle."""

    z: np.ndarray
    normal: np.ndarray
    kappa: float
    eta: float
    tau: float


@dataclass(frozen=True)
class DeltaPair:
    """Displacement measures Delta_+ and Delta_- of z_pm from the edge values."""

    delta_plus: complex
    delta_minus: complex


def xi_for_tau(tau: float) -> float:
    """Elliptic radius of the droplet boundary, xi_tau = log(1/tau) / 2."""
    if not (0.0 < tau < 1.0):
        raise DomainError(f"xi_tau requires 0 < tau < 1, got {tau}")
    return 0.5 * math.log(1.0 / tau)


def _quadratic_form(tau: float, z: np.ndarray) -> float:
    re2 = float(np.sum(z.real**2))
    im2 = float(np.sum(z.imag**2))
    return (1.0 - tau) / (1.0 + tau) * re2 + (1.0 + tau) / (1.0 - tau) * im2


def droplet_classify(params: ModelParams, z, tol: float = 1e-9) -> Classification:
    """Locate z relative to the droplet: sign of the quadratic form minus one."""
    z = as_point(params, z)
    q = _quadratic_form(params.tau, z) - 1.0
    if abs(q) <= tol:
        return Classification.EDGE
    return Classification.INSIDE if q < 0 else Classification.OUTSIDE


def _semi_axes(tau: float) -> tuple[float, float]:
    a = math.sqrt((1.0 + tau) / (1.0 - tau))
    return a, 1.0 / a


def edge_point(params: ModelParams, theta: float, p=None, q=None) -> EdgePoint:
    """Deterministic boundary point from an angle and two real unit directions.

    Re z = A cos(theta) p and Im z = B sin(theta) q with A, B the droplet
    semi-axes; theta in [0, pi/2] is exactly the elliptic angle eta of the
    associated planar point |Re z| + i |Im z|.
    """
    d, tau = params.d, params.tau
    if not 0.0 <= theta <= math.pi / 2:
        raise DomainError("theta must lie in [0, pi/2]")
    p = np.ones(d) / math.sqrt(d) if p is None else np.asarray(p, dtype=float)
    q = np.ones(d) / math.sqrt(d) if q is None else np.asarray(q, dtype=float)
    for name, vec in (("p", p), ("q", q)):
        if vec.shape != (d,) or abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise DomainError(f"{name} must be a real unit vector of length {d}")
    a_axis, b_axis = _semi_axes(tau)
    z = a_axis * math.cos(theta) * p + 1j * b_axis * math.sin(theta) * q
    normal = outward_normal(tau, z)
    kappa = curvature_kappa(tau, z)
    return EdgePoint(z=z, normal=normal, kappa=kappa, eta=theta, tau=tau)


def edge_point_sample(params: ModelParams, direction_seed: int) -> EdgePoint:
    """Seeded random boundary point (counter-based generator, reproducible)."""
    rng = np.random.Generator(np.random.Philox(key=int(direction_seed)))
    d = params.d
    p = rng.standard_normal(d)
    p /= np.linalg.norm(p)
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    theta = float(rng.uniform(0.0, math.pi / 2))
    return edge_point(params, theta, p, q)


def outward_normal(tau: float, z) -> np.ndarray:
    """Outward unit normal of the droplet boundary at z.

    Gradient direction of the defining quadratic form,
    ((1-tau)^2 Re z + i (1+tau)^2 Im z) normalized.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    params = ModelParams(d=z.size, tau=tau, n=1)
    if droplet_classify(params, z, tol=1e-6) is not Classification.EDGE:
        raise DomainError("outward_normal requires a point on the droplet boundary")
    vec = (1.0 - tau) ** 2 * z.real + 1j * (1.0 + tau) ** 2 * z.imag
    return vec / np.linalg.norm(vec)


def curvature_kappa(tau: float, z) -> float:
    """Edge curvature factor kappa(z) of the density expansion.

    kappa = ((|Re z|^2 - |Im z|^2 - 4 tau/(1-tau^2))^2
             + 4 |Re z|^2 |Im z|^2)^(-3/4);
    at tau = 0 this is identically 1 on the unit sphere, and for d = 1 it
    is the classical curvature of the boundary ellipse.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    re2 = float(np.sum(z.real**2))
    im2 = float(np.sum(z.imag**2))
    base = (re2 - im2 - 4.0 * tau / (1.0 - tau * tau)) ** 2 + 4.0 * re2 * im2
    return base ** (-0.75)


def _hat_zpm(tau: float, eta: float) -> tuple[complex, complex]:
    xi = xi_for_tau(tau)
    return _SQRT2 * cmath.cosh(complex(xi, eta)), _SQRT2 * cmath.cosh(complex(xi, -eta))


def zpm_map(params: ModelParams, z, u, v) -> tuple[complex, complex]:
    """The scalar pair z_plus, z_minus for arguments (sqrt(n) z + u, sqrt(n) z + v).

    z_pm = sqrt(sinh 2 xi_tau)/2 (sqrt(sum (z'_j + conj(w'_j))^2)
                                  +- sqrt(sum (z'_j - conj(w'_j))^2))
    with z' = z + u/sqrt(n), w' = z + v/sqrt(n).  The square roots use the
    principal branch; downstream quantities depend only on (z_+ +- z_-)^2
    and are insensitive to the choice.
    """
    if params.tau == 0.0:
        raise UsageError("zpm_map is the tau > 0 route; at tau = 0 use the dot product")
    z = as_point(params, z)
    u = as_point(params, u)
    v = as_point(params, v)
    rn = math.sqrt(params.n)
    zp = z + u / rn
    wp = z + v / rn
    s1 = cmath.sqrt(complex(np.sum((zp + np.conj(wp)) ** 2)))
    s2 = cmath.sqrt(complex(np.sum((zp - np.conj(wp)) ** 2)))
    c = math.sqrt(math.sinh(2.0 * xi_for_tau(params.tau)))
    return 0.5 * c * (s1 + s2), 0.5 * c * (s1 - s2)


def delta_pm(params: ModelParams, z_pm: tuple[complex, complex], edge: EdgePoint) -> DeltaPair:
    """Displacements Delta_pm = (z_pm - zhat_pm) / sqrt(zhat_pm^2 - 2).

    The raw z_pm pair from zpm_map is defined only up to a swap and a
    global sign; the representative closest to the edge values zhat_pm is
    selected before forming the quotient.
    """
    hat_p, hat_m = _hat_zpm(params.tau, edge.eta)
    zp, zm = z_pm
    candidates = [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]
    best = min(candidates, key=lambda c: abs(c[0] - hat_p) + abs(c[1] - hat_m))
    xi = xi_for_tau(params.tau)
    root_p = _SQRT2 * cmath.sinh(complex(xi, edge.eta))
    root_m = _SQRT2 * cmath.sinh(complex(xi, -edge.eta))
    if min(abs(root_p), abs(root_m)) < 1e-12:
        raise DegenerateCoordinatesError("edge point sits at a focus")
    return DeltaPair(
        delta_plus=(best[0] - hat_p) / root_p,
        delta_minus=(best[1] - hat_m) / root_m,
    )


class PhaseFunction:
    """Phase F(s) of the contour integrand for one z_pm pair, with derivatives."""

    def __init__(self, tau: float, z_plus: complex, z_minus: complex) -> None:
        if not (0.0 < tau < 1.0):
            raise DomainError(f"PhaseFunction requires 0 < tau < 1, got {tau}")
        self.tau = float(tau)
        self.z_plus = complex(z_plus)
        self.z_minus = complex(z_minus)
        self.p_sq = (self.z_plus + self.z_minus) ** 2
        self.q_sq = (self.z_plus - self.z_minus) ** 2
        self.log_tau = math.log(tau)

    def F(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return (
            0.5 * self.p_sq * s / (1.0 + s)
            - 0.5 * self.q_sq * s / (1.0 - s)
            - np.log(s)
            + self.log_tau
        )

    def dF(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return 0.5 * self.p_sq / (1.0 + s) ** 2 - 0.5 * self.q_sq / (1.0 - s) ** 2 - 1.0 / s

    def d2F(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return -self.p_sq / (1.0 + s) ** 3 - self.q_sq / (1.0 - s) ** 3 + 1.0 / s**2

    def d3F(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return 3.0 * self.p_sq / (1.0 + s) ** 4 - 3.0 * self.q_sq / (1.0 - s) ** 4 - 2.0 / s**3


@dataclass(frozen=True)
class SaddleFrame:
    """Saddle quadruple with the phase data one contour evaluation needs."""

    a: complex
    a_inv: complex
    b: complex
    b_inv: complex
    F_at_a_inv: complex
    F2_at_a_inv: complex
    z_plus: complex
    z_minus: complex
    radius: float
    phase: PhaseFunction

    @property
    def saddles(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.a_inv, self.b, self.b_inv)


def _outer_root(z: complex, c: float = 2.0) -> complex:
    """z + sqrt(z^2 - c) with the branch of modulus >= sqrt(c)."""
    r = cmath.sqrt(z * z - c)
    w1 = z + r
    w2 = z - r
    return w1 if abs(w1) >= abs(w2) else w2


def saddle_points(z_plus: complex, z_minus: complex) -> tuple[complex, complex, complex, complex]:
    """The saddle quadruple (a, 1/a, b, 1/b) of F for the given z_pm pair.

    a = (z_+ + sqrt(z_+^2 - 2))(z_- + sqrt(z_-^2 - 2)) / 2 with the outer
    branch, so |a| >= 1 always; b mixes the branches.  At focal inputs
    (z_pm^2 = 2) the four points coincide pairwise or fully, which this
    routine reports faithfully rather than rejecting.
    """
    wp = _outer_root(complex(z_plus))
    wm = _outer_root(complex(z_minus))
    a = 0.5 * wp * wm
    b = wp / wm
    return a, 1.0 / a, b, 1.0 / b


def saddle_frame(params: ModelParams, z_plus: complex, z_minus: complex) -> SaddleFrame:
    """Assemble the saddle frame; refuses focal degeneracies.

    When z_plus or z_minus sits at a focus (+-sqrt(2)) the saddles have
    order two and F'' vanishes, so the quadratic steepest-descent theory
    breaks down; such inputs raise DegenerateSaddleError.
    """
    z_plus = complex(z_plus)
    z_minus = complex(z_minus)
    if min(abs(z_plus * z_plus - 2.0), abs(z_minus * z_minus - 2.0)) < 1e-10:
        raise DegenerateSaddleError("saddle points coincide at a focal input")
    phase = PhaseFunction(params.tau, z_plus, z_minus)
    a, a_inv, b, b_inv = saddle_points(z_plus, z_minus)
    return SaddleFrame(
        a=a,
        a_inv=a_inv,
        b=b,
        b_inv=b_inv,
        F_at_a_inv=complex(phase.F(a_inv)),
        F2_at_a_inv=complex(phase.d2F(a_inv)),
        z_plus=z_plus,
        z_minus=z_minus,
        radius=abs(a_inv),
        phase=phase,
    )
