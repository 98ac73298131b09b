"""Steepest-descent machinery: the pole/Gaussian integral, the conformal
map value at the pole, and the asymptotic formulas for the normalized
contour integrals, one of each for every 0 <= tau < 1.

The coalescing saddle/pole mechanism rests on a single model integral,

    int_{l1}^{l2} e^{-n t^2} / (t - p) dt
        = -pi i e^{-n p^2} erfc(i sqrt(n) p) + O((e^{-n l1^2} + e^{-n l2^2}) / n),

valid when the pole p lies to the right of the integration path.  Near a
droplet edge the contour route's phase F(t) = G(t) - log t differs from
its saddle value by -phi(t)^2 for a conformal map phi, and only the
single number phi(1), at the pole t = 1, enters the final formulas; it is
computed as the branch of sqrt(F(t*) - F(1)) matching the series expansion

    phi(t) = -i sqrt(F''/2) (t - t*) - i/(6 sqrt 2) F'''/sqrt(F'') (t - t*)^2 + ...

Everything is read from the pair invariants X, Q and P through the
contour module's phase, saddle and zhat_pm, in t = s/tau, so nothing
divides by tau: the displacements Delta_pm and the scale sigma stay
finite as tau -> 0 (sigma -> sqrt 2), and tau = 0 is the Ginibre case of
the same formulas.  The asymptotic values implemented here have been
cross-checked against the exact kernel; see asymptotic_I_tau for the
constants.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .contour import _hat_z, _invariants, _phase_t, _saddle_t
from .errors import DegenerateCoordinatesError, DomainError, QuadratureError
from .geometry import EdgePoint
from .kernel import ModelParams, as_point
from .special import erfc_complex, erfcx_complex, gauss_legendre

__all__ = [
    "pole_gaussian_integral",
    "phi_at_pole",
    "delta_pm",
    "phi_lemma_two_term",
    "asymptotic_I_tau",
    "sinh_ratio",
]


def _adaptive_path(f: Callable, pieces: list[tuple[complex, complex]], tol: float, order: int = 32) -> complex:
    """Composite Gauss-Legendre over straight pieces (a, b), doubling panels to tolerance.

    Convergence allows a rounding floor proportional to the L1 norm of the
    sampled integrand, which is what limits accuracy when the path carries
    large oscillating magnitudes.
    """
    x, w = gauss_legendre(order)
    panels = 4
    prev = None
    for _ in range(10):
        total = 0.0 + 0.0j
        l1_norm = 0.0
        for a, b in pieces:
            for k in range(panels):
                lo = -1.0 + 2.0 * k / panels
                hi = -1.0 + 2.0 * (k + 1) / panels
                xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
                vals = w * f(0.5 * (a + b) + 0.5 * (b - a) * xs) * (0.5 * (b - a))
                total += 0.5 * (hi - lo) * complex(np.sum(vals))
                l1_norm += 0.5 * (hi - lo) * float(np.sum(np.abs(vals)))
        threshold = tol * max(abs(total), 1e-300) + 100.0 * 2.2e-16 * l1_norm
        if prev is not None and abs(total - prev) <= threshold:
            return total
        prev = total
        panels *= 2
    raise QuadratureError("pole/Gaussian path integral did not converge")


def pole_gaussian_integral(
    n: int, p: complex, l1: float, l2: float, pole_below_path: bool = True
) -> tuple[complex, complex]:
    """Both sides of the coalescing pole/Gaussian identity.

    lhs: quadrature of int_{l1}^{l2} e^{-n t^2}/(t - p) dt along a path
    keeping p to the right (below) of it, indented above p when p sits on
    or above the real axis.  rhs: -pi i erfcx(i sqrt(n) p), the
    overflow-free rewriting of -pi i e^{-n p^2} erfc(i sqrt(n) p).

    pole_below_path=False flips the side of the path, which shifts the
    value by the full residue 2 pi i e^{-n p^2}.
    """
    if not l1 < 0.0 < l2:
        raise DomainError("need l1 < 0 < l2")
    p = complex(p)
    delta = 0.05 * (l2 - l1)
    if not (l1 + delta < p.real < l2 - delta):
        raise DomainError("pole too close to an integration endpoint")

    def f(t):
        return np.exp(-n * t * t) / (t - p)

    needs_indent = (p.imag >= 0.0) if pole_below_path else (p.imag <= 0.0)
    if needs_indent:
        # Tent detour through an apex just past the pole; by analyticity the
        # value only depends on which side of p the path runs.
        clear = 0.1
        apex = complex(p.real, p.imag + (clear if pole_below_path else -clear))
        pieces = [(complex(l1, 0.0), apex), (apex, complex(l2, 0.0))]
    else:
        pieces = [(complex(l1, 0.0), complex(l2, 0.0))]
    lhs = _adaptive_path(f, pieces, 1e-13)

    q = 1j * math.sqrt(n) * p
    rhs = -1j * math.pi * erfcx_complex(q)
    if not pole_below_path:
        rhs = rhs + 2j * math.pi * cmath.exp(-n * p * p)
    return lhs, rhs


def _branch_matched_root(diff: complex, expected: complex) -> complex:
    w = cmath.sqrt(diff)
    return w if abs(w - expected) <= abs(-w - expected) else -w


def phi_at_pole(params: ModelParams, x: complex, q_sum: complex, p_sum: complex) -> complex:
    """phi(1) by the branch-consistent square root of F(t*) - F(1), for the
    pair invariants X, Q and P at any 0 <= tau < 1, with F(t) = G(t) - log t
    and t* = 1/(tau a) the dominant saddle (1/X at tau = 0).

    The sign is fixed by the two-term series at the saddle; if even the
    two-term value vanishes the branch is genuinely ambiguous and a
    DomainError is raised.  The value is that of the s = tau t plane.
    """
    tau = params.tau
    saddle = 1.0 / _saddle_t(tau, x, q_sum, p_sum)
    step = 1.0 - saddle
    if abs(step) <= 1e-14 * (1.0 + abs(saddle)):
        # exact coalescence: phi(pole) = 0 with no branch to choose
        return 0.0 + 0.0j
    f, _, f2, f3 = _phase_t(tau, q_sum, p_sum, saddle)
    expected = -1j * cmath.sqrt(0.5 * f2) * step - (1j / (6.0 * math.sqrt(2.0))) * f3 / cmath.sqrt(f2) * step * step
    if abs(expected) < 1e-14:
        raise DomainError("conformal-map branch ambiguous at this pole/saddle configuration")
    return _branch_matched_root(f - _phase_t(tau, q_sum, p_sum, 1.0)[0], expected)


def _edge_values(tau: float, eta: float) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The edge values zhat_pm = (e^{+-i eta} + tau e^{-+i eta})/sqrt 2 of
    _hat_z at the boundary point of elliptic angle eta, and the roots
    (e^{+-i eta} - tau e^{-+i eta})/sqrt 2 of zhat_pm^2 - 2 tau there."""
    e = cmath.exp(1j * eta) / math.sqrt(2.0)
    return (e + tau * e.conjugate(), e.conjugate() + tau * e), (e - tau * e.conjugate(), e.conjugate() - tau * e)


def delta_pm(params: ModelParams, edge: EdgePoint, u, v) -> tuple[complex, complex]:
    """Displacements Delta_pm = (zhat_pm - e_pm)/root_pm of the kernel
    arguments (sqrt(n) z + u, sqrt(n) z + v) at the boundary point z = edge.z,
    with e_pm and root_pm from _edge_values; finite at every 0 <= tau < 1.

    zhat_pm, from the pair's invariants, are defined only up to a swap and
    a common sign; the representative closest to the edge values is
    selected before forming the quotient.
    """
    z, u, v = (as_point(params, a)[None] for a in (edge.z, u, v))
    rn = math.sqrt(params.n)
    (x,), (q_sum,), (p_sum,) = _invariants(z + u / rn, z + v / rn)
    zp, zm = _hat_z(params.tau, x, q_sum, p_sum)
    (hat_p, hat_m), (root_p, root_m) = _edge_values(params.tau, edge.eta)
    candidates = [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]
    best = min(candidates, key=lambda c: abs(c[0] - hat_p) + abs(c[1] - hat_m))
    if min(abs(root_p), abs(root_m)) < 1e-12:
        raise DegenerateCoordinatesError("edge point sits at a focus")
    return (best[0] - hat_p) / root_p, (best[1] - hat_m) / root_m


def sinh_ratio(tau: float, eta: float) -> float:
    """sigma = sqrt(2 q)/|e^{i eta} - tau e^{-i eta}|, the edge scale factor
    sqrt(sinh 2 xi_tau)/|sinh(xi_tau + i eta)| with xi_tau = log(1/tau)/2,
    in a form that tends to sqrt 2 as tau -> 0."""
    return math.sqrt(2.0 * (1.0 - tau) * (1.0 + tau)) / abs(cmath.exp(1j * eta) - tau * cmath.exp(-1j * eta))


def phi_lemma_two_term(
    params: ModelParams, eta: float, delta_plus: complex, delta_minus: complex
) -> complex:
    """Printed two-term expansion of phi(1) in the displacement measures:

    i phi(1) = (Delta_+ + Delta_-)/sigma
               - sigma (Delta_+^2 - Delta_+ Delta_- + Delta_-^2)/6 + O(n^{-3/2}),
    sigma = sinh_ratio(tau, eta).
    """
    sig = sinh_ratio(params.tau, eta)
    i_phi = (delta_plus + delta_minus) / sig - sig * (
        delta_plus**2 - delta_plus * delta_minus + delta_minus**2
    ) / 6.0
    return -1j * i_phi


def asymptotic_I_tau(
    params: ModelParams, eta: float, delta_plus: complex, delta_minus: complex
) -> complex:
    """Edge asymptotics of N = (1-tau^2)^{d/2} e^{-n G(1)} I, for every 0 <= tau < 1:

    1/2 erfc(sqrt(n) (D+ + D-) / sigma)
      + (sigma / (2 sqrt(pi n))) e^{-n (D+ + D-)^2 / sigma^2}
        * (n (D+^2 - D+ D- + D-^2)/3 - sigma^2/6 - tau^2 (d-1)/(1-tau^2)).

    The 1/sqrt(n) prefactor is half the commonly printed one; the halved
    value is the one consistent with the d = 1 density expansion and with
    the exact kernel (checked to four digits in the tests).
    """
    d, tau, n = params.d, params.tau, params.n
    sig = sinh_ratio(tau, eta)
    dsum = delta_plus + delta_minus
    arg = math.sqrt(n) * dsum / sig
    gauss = cmath.exp(-n * dsum * dsum / (sig * sig))
    bracket = (
        n * (delta_plus**2 - delta_plus * delta_minus + delta_minus**2) / 3.0
        - sig * sig / 6.0
        - tau * tau * (d - 1) / (1.0 - tau * tau)
    )
    return 0.5 * erfc_complex(arg) + sig / (2.0 * math.sqrt(math.pi * n)) * gauss * bracket
