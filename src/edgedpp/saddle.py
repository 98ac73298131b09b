"""Steepest-descent machinery: the pole/Gaussian integral, the conformal
map value at the pole, and the asymptotic formulas for the normalized
contour integrals.

The coalescing saddle/pole mechanism rests on a single model integral,

    int_{l1}^{l2} e^{-n t^2} / (t - p) dt
        = -pi i e^{-n p^2} erfc(i sqrt(n) p) + O((e^{-n l1^2} + e^{-n l2^2}) / n),

valid when the pole p lies to the right of the integration path.  Near a
droplet edge the phase F differs from its saddle value by -phi(s)^2 for a
conformal map phi, and only the single number phi(pole) enters the final
formulas; it is computed as the branch of sqrt(F(saddle) - F(pole))
matching the series expansion

    phi(s) = -i sqrt(F''/2) (s - s*) - i/(6 sqrt 2) F'''/sqrt(F'') (s - s*)^2 + ...

The asymptotic values implemented here have been cross-checked against
the exact kernel; see asymptotic_I_tau for the constants.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, UsageError
from .geometry import SaddleFrame, xi_for_tau
from .kernel import ModelParams
from .special import erfc_complex, erfcx_complex, gauss_legendre

__all__ = [
    "pole_gaussian_integral",
    "phi_at_pole",
    "phi_at_pole_tau0",
    "phi_lemma_two_term",
    "phi_lemma_two_term_tau0",
    "asymptotic_I_tau",
    "asymptotic_I_zero",
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


def phi_at_pole(params: ModelParams, frame: SaddleFrame) -> complex:
    """phi(tau) by the branch-consistent square root of F(1/a) - F(tau).

    The sign is fixed by the two-term series at the saddle; if even the
    two-term value vanishes the branch is genuinely ambiguous and a
    DomainError is raised.
    """
    if not (0.0 < params.tau < 1.0):
        raise UsageError("phi_at_pole is the tau > 0 route")
    pole = params.tau
    step = pole - frame.a_inv
    if abs(step) <= 1e-14 * (1.0 + abs(frame.a_inv)):
        # exact coalescence: phi(pole) = 0 with no branch to choose
        return 0.0 + 0.0j
    lead_coeff = -1j * cmath.sqrt(0.5 * frame.F2_at_a_inv)
    expected = lead_coeff * step - (1j / (6.0 * math.sqrt(2.0))) * complex(
        frame.phase.d3F(frame.a_inv)
    ) / cmath.sqrt(frame.F2_at_a_inv) * step * step
    if abs(expected) < 1e-14:
        raise DomainError("conformal-map branch ambiguous at this pole/saddle configuration")
    return _branch_matched_root(frame.F_at_a_inv - complex(frame.phase.F(pole)), expected)


def phi_at_pole_tau0(params: ModelParams, zeta: complex) -> complex:
    """tau = 0 analogue: phi(1) for F(s) = zeta s - log s with saddle 1/zeta."""
    zeta = complex(zeta)
    if zeta == 0:
        raise DomainError("zeta = 0 has no saddle point")
    s0 = 1.0 / zeta
    step = 1.0 - s0
    if abs(step) <= 1e-14 * (1.0 + abs(s0)):
        return 0.0 + 0.0j
    expected = -1j / (math.sqrt(2.0) * s0) * step + (1j / (3.0 * math.sqrt(2.0))) * (step / s0) ** 2
    if abs(expected) < 1e-14:
        raise DomainError("conformal-map branch ambiguous at this pole/saddle configuration")
    f_saddle = 1.0 + cmath.log(zeta)  # F(1/zeta)
    f_pole = zeta  # F(1)
    return _branch_matched_root(f_saddle - f_pole, expected)


def sinh_ratio(tau: float, eta: float) -> float:
    """sqrt(sinh 2 xi_tau) / |sinh(xi_tau + i eta)|, the edge scale factor."""
    xi = xi_for_tau(tau)
    return math.sqrt(math.sinh(2.0 * xi)) / abs(cmath.sinh(complex(xi, eta)))


def phi_lemma_two_term(
    params: ModelParams, eta: float, delta_plus: complex, delta_minus: complex
) -> complex:
    """Printed two-term expansion of phi(tau) in the displacement measures:

    i phi(tau) = (Delta_+ + Delta_-)/sigma
                 - sigma (Delta_+^2 - Delta_+ Delta_- + Delta_-^2)/6 + O(n^{-3/2}),
    sigma = sqrt(sinh 2 xi_tau)/|sinh(xi_tau + i eta)|.
    """
    sig = sinh_ratio(params.tau, eta)
    i_phi = (delta_plus + delta_minus) / sig - sig * (
        delta_plus**2 - delta_plus * delta_minus + delta_minus**2
    ) / 6.0
    return -1j * i_phi


def phi_lemma_two_term_tau0(delta: complex) -> complex:
    """tau = 0 printed expansion: i phi(1) = Delta/sqrt(2) - Delta^2/(3 sqrt 2)."""
    i_phi = delta / math.sqrt(2.0) - delta * delta / (3.0 * math.sqrt(2.0))
    return -1j * i_phi


def asymptotic_I_zero(params: ModelParams, delta: complex) -> complex:
    """Edge asymptotics of N_0 = e^{-n F(1)} I at zeta = 1 + Delta:

    1/2 erfc(sqrt(n) Delta / sqrt 2)
      + e^{-n Delta^2 / 2} (n Delta^2 - 1) / (3 sqrt(2 pi n)).
    """
    n = params.n
    delta = complex(delta)
    arg = math.sqrt(n) * delta / math.sqrt(2.0)
    gauss = cmath.exp(-0.5 * n * delta * delta)
    return 0.5 * erfc_complex(arg) + gauss * (n * delta * delta - 1.0) / (
        3.0 * math.sqrt(2.0 * math.pi * n)
    )


def asymptotic_I_tau(
    params: ModelParams, eta: float, delta_plus: complex, delta_minus: complex
) -> complex:
    """Edge asymptotics of N_tau = (1-tau^2)^{d/2} e^{-n F(tau)} I:

    1/2 erfc(sqrt(n) (D+ + D-) / sigma)
      + (sigma / (2 sqrt(pi n))) e^{-n (D+ + D-)^2 / sigma^2}
        * (n (D+^2 - D+ D- + D-^2)/3 - sigma^2/6 - tau^2 (d-1)/(1-tau^2)).

    The 1/sqrt(n) prefactor is half the commonly printed one; the halved
    value is the one consistent with the d = 1 density expansion and with
    the exact kernel (checked to four digits in the tests).
    """
    d, tau, n = params.d, params.tau, params.n
    if not (0.0 < tau < 1.0):
        raise UsageError("asymptotic_I_tau requires 0 < tau < 1")
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
