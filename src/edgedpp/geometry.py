"""Droplet geometry: membership, boundary points, normals and curvature.

The rescaled particle density concentrates on the ellipsoid

    E_tau^d = { z in C^d : (1-tau)/(1+tau) |Re z|^2
                         + (1+tau)/(1-tau) |Im z|^2 < 1 },

whose boundary carries the outward unit normal and the curvature-type
quantity kappa entering every edge expansion.  A boundary point z maps to
the planar ellipse point |Re z| + i |Im z|, whose elliptic angle eta
(EdgePoint.eta) fixes the edge values of the saddle analysis
(saddle.delta_pm); the phase, its saddles and the displacements of a
kernel pair are read from the pair invariants in contour and saddle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .kernel import ModelParams, as_point

__all__ = [
    "Classification",
    "EdgePoint",
    "droplet_classify",
    "edge_point",
    "edge_point_sample",
    "outward_normal",
    "curvature_kappa",
]


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
