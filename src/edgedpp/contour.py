"""Stable evaluation of the single contour-integral kernel representations.

For 0 < tau < 1 the kernel at scaled arguments equals a weight factor
times

    I(z_pm) = -(1/2 pi i) oint e^{n F(s)} / ((s - tau) (1 - s^2)^{d/2}) ds

over a small loop around the origin, with F the phase of
geometry.PhaseFunction.  The loop is deformed to a circle through the
dominant saddle 1/a; when the deformation crosses the simple pole at
s = tau the residue is picked up.  Everything is normalized by
e^{-n F(pole)} inside the loop, so the returned quantity

    N_tau = (1 - tau^2)^{d/2} e^{-n F(tau)} I

is the order-one object the edge expansions describe (N -> 1 deep in the
bulk, 1/2 on the edge, 0 outside).  At tau = 0 the same machinery applies
to F(s) = zeta s - log s with the pole at s = 1 and

    N_0 = e^{-n F(1)} I.

normalized_integral returns N and F(pole) for the kernel arguments
(sqrt(n) z + u, sqrt(n) z + v) and is the one place that picks the
tau = 0 or the tau > 0 integral; the kernel route, the normalized kernel
and the bulk experiment all go through it.

The trapezoid rule on a circle converges geometrically in the node count
with rate set by the angular distance to the nearest singularity, here
the pole at relative distance ~ offset/sqrt(n); the default node count
64 sqrt(n) therefore already resolves it (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 2014).  The rules
are nested: the even-indexed half of the N start nodes is the N/2-node
rule, so a value certified against that embedded half costs N node
evaluations.  Only when the check fails does a doubling evaluate the
midpoints of the current rule, reusing its node sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContourError, DomainError, QuadratureError, UsageError
from .geometry import SaddleFrame, saddle_frame, zpm_map
from .kernel import ModelParams, as_point, log_weight_omega
from .special import LogMagnitudePhase, stable_sum, stable_sum_with_l1

__all__ = [
    "ContourConfig",
    "DEFAULT_CONTOUR",
    "integral_I_tau",
    "integral_I_zero",
    "normalized_integral",
    "kernel_via_contour_log",
    "max_principle_check",
]

# Keep the circle out of the branch region of (1 - s^2)^{d/2}.
_MAX_RADIUS_TAU = 0.999
# Cap the base circle below the essential singularities at +-1.  Whenever
# the saddle circle |a|^{-1} exceeds the cap the configuration is bulk-like
# (|a|^{-1} > tau always holds there), the pole stays enclosed on either
# circle, and by Cauchy's theorem the value is unchanged.
_RADIUS_CAP_TAU = 0.93
# Refuse when the pole ends up closer than this many r/sqrt(n) units; the
# radius nudge is relative, so the guard is too (tau -> 0 puts r near tau).
_MIN_POLE_GAP = 1e-3

_ONE = LogMagnitudePhase(0.0, 1.0 + 0.0j)


@dataclass(frozen=True)
class ContourConfig:
    """Quadrature knobs for the circle contour.

    radius_offset is the relative radius shift in units of 1/sqrt(n): the
    circle is |a|^{-1} (1 +- radius_offset/sqrt(n)), with the sign chosen
    away from the pole.
    """

    node_count: int = 512
    radius_offset: float = 1.0
    tolerance: float = 1e-10
    max_doublings: int = 8

    def __post_init__(self) -> None:
        if self.node_count < 64:
            raise DomainError("node_count must be >= 64")
        if not (self.tolerance > 0.0):
            raise DomainError("tolerance must be positive")
        if not (0.0 < self.radius_offset < 100.0):
            raise DomainError("radius_offset must lie in (0, 100)")
        if self.max_doublings < 1:
            raise DomainError("max_doublings must be >= 1")


DEFAULT_CONTOUR = ContourConfig()


def _choose_radius(base: float, pole: float, n: int, offset: float) -> tuple[float, bool]:
    """Radius near the saddle circle, nudged away from (or past) the pole.

    The natural gap base - pole decides the side: positive gap keeps the
    pole inside, nonpositive pushes the circle inward so the pole stays
    outside.  The relative nudge offset/sqrt(n) (capped at 5% so small n
    stays near the saddle circle) adds to the gap on the same side, so
    |r - pole| >= base * nudge always.
    """
    gap = base - pole
    sign = 1.0 if gap > 0.0 else -1.0
    nudge = min(offset / math.sqrt(n), 0.05)
    r = base * (1.0 + sign * nudge)
    return r, r > pole


def _converged(a: LogMagnitudePhase, b: LogMagnitudePhase, tol: float) -> bool:
    if a.log_mag == -math.inf and b.log_mag == -math.inf:
        return True
    if a.log_mag == -math.inf or b.log_mag == -math.inf:
        return False
    return abs(a.ratio_to(b) - 1.0) <= tol


def _reject_hopeless_cancellation(l1_log: float, val: LogMagnitudePhase, r: float, n: int) -> None:
    """Refuse configurations whose node sum cancels beyond double capability.

    l1_log is the log L1 norm of the weighted node values (and the residue)
    summed into val; against the magnitude of val it measures the digits
    lost.  Past ~e^34 no node count can recover the relative tolerance,
    which happens only near degenerate saddle configurations the quadratic
    theory excludes anyway.
    """
    if val.log_mag == -math.inf:
        return
    if l1_log - val.log_mag > 34.0:
        raise ContourError(
            "cancellation beyond double precision on the contour "
            f"(near-degenerate configuration: radius {r:.4g}, n={n})"
        )


def _trapezoid_nodes(count: int, midpoints: bool = False) -> np.ndarray:
    """count equispaced angles 2 pi k / count, or the count midpoints between them."""
    k = np.arange(count) + 0.5 if midpoints else np.arange(count)
    return 2.0 * math.pi * k / count


def _nested_trapezoid(
    node_values: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    count: int,
    residue: bool,
    config: ContourConfig,
    r: float,
    n: int,
    where: str,
) -> LogMagnitudePhase:
    """Adaptive trapezoid rule on the circle, certified by its embedded half.

    node_values maps angles to the per-node (log magnitude, phase) of the
    integrand sum without the 1/count weight.  The count (even) start nodes
    are evaluated once; their even-indexed half is the count/2-node rule,
    and T_N agreeing with that T_{N/2} to the relative tolerance ends the
    loop at N evaluations.  Otherwise each doubling evaluates only the
    count midpoints of the current rule, T_2N = (S_N + S_mid) / 2N with S
    the plain node sums, until two successive estimates agree.  The
    residue +1 joins each estimate after the weighting.  Every estimate
    from T_N on passes the cancellation guard, whose log L1 norm
    accumulates alongside the node sums.
    """
    log_mag, phase = node_values(_trapezoid_nodes(count))
    even_sum, even_l1 = stable_sum_with_l1(log_mag[::2], phase[::2])
    odd_sum, odd_l1 = stable_sum_with_l1(log_mag[1::2], phase[1::2])
    node_sum = stable_sum((even_sum, odd_sum))
    node_l1 = float(np.logaddexp(even_l1, odd_l1))

    def estimate(total: LogMagnitudePhase, nodes: int) -> LogMagnitudePhase:
        val = LogMagnitudePhase(total.log_mag - math.log(nodes), total.phase)
        return stable_sum((val, _ONE)) if residue else val

    prev = estimate(even_sum, count // 2)
    for doubling in range(config.max_doublings + 1):
        if doubling:
            mid_log, mid_phase = node_values(_trapezoid_nodes(count, midpoints=True))
            mid_sum, mid_l1 = stable_sum_with_l1(mid_log, mid_phase)
            node_sum = stable_sum((node_sum, mid_sum))
            node_l1 = float(np.logaddexp(node_l1, mid_l1))
            count *= 2
        val = estimate(node_sum, count)
        l1_log = node_l1 - math.log(count)
        if residue:
            l1_log = float(np.logaddexp(l1_log, 0.0))
        _reject_hopeless_cancellation(l1_log, val, r, n)
        if _converged(val, prev, config.tolerance):
            return val
        prev = val
    raise QuadratureError(
        f"contour integral did not converge: n={n}, {where}, "
        f"final node count {count}, tolerance {config.tolerance:g}"
    )


def _start_count(config: ContourConfig, n: int) -> int:
    """Start node count, rounded up to even so its even-indexed half is a rule."""
    count = max(config.node_count, 64 * math.isqrt(n - 1) + 64)
    return count + count % 2


def _log_on_circle(r: float, theta: np.ndarray) -> np.ndarray:
    """log s at s = r e^{i theta}, without a complex log.

    The branch differs from the principal one by 2 pi i for theta > pi,
    which the integer n multiplying it turns into a whole number of turns.
    """
    return math.log(r) + 1j * theta


def _quadrature_tau(
    frame: SaddleFrame, params: ModelParams, r: float, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (log magnitude, phase) of the normalized integrand at angles theta.

    Contribution of node s, before the 1/count weight: -e^{n (F(s) - F(tau))}
    (1-tau^2)^{d/2} * s / ((s - tau) (1 - s^2)^{d/2}).
    """
    tau, d, n = params.tau, params.d, params.n
    s = r * np.exp(1j * theta)
    one_minus_s2 = 1.0 - s * s
    if np.any(one_minus_s2.real <= 0.0):
        raise ContourError("contour touches the branch region of (1 - s^2)^{d/2}")
    df = frame.phase.F(s, _log_on_circle(r, theta)) - frame.phase.F_at_pole()
    # (1 - s^2)^{d/2} through the principal square root: the branch of the
    # complex power, without its cost for odd d
    rest = s / ((s - tau) * np.sqrt(one_minus_s2) ** d)
    log_mag = n * df.real + np.log(np.abs(rest))
    log_mag += 0.5 * d * math.log1p(-tau * tau)
    phase = np.exp(1j * (n * df.imag)) * (rest / np.abs(rest)) * (-1.0)
    return log_mag, phase


def _quadrature_zero(zeta: complex, n: int, r: float, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (log magnitude, phase) of the tau = 0 integrand at angles theta.

    Contribution of node s, before the 1/count weight: -e^{n (zeta s - log s
    - zeta)} * s / (s - 1).
    """
    s = r * np.exp(1j * theta)
    df = zeta * s - _log_on_circle(r, theta) - zeta
    rest = s / (s - 1.0)
    log_mag = n * df.real + np.log(np.abs(rest))
    phase = np.exp(1j * (n * df.imag)) * (rest / np.abs(rest)) * (-1.0)
    return log_mag, phase


def integral_I_tau(
    params: ModelParams,
    frame: SaddleFrame,
    config: ContourConfig = DEFAULT_CONTOUR,
    include_residue: bool = True,
) -> LogMagnitudePhase:
    """Pole-normalized contour value N_tau = (1-tau^2)^{d/2} e^{-n F(tau)} I.

    Trapezoid rule on the circle |s| = |a|^{-1} (1 +- offset/sqrt(n)); the
    residue term +1 is added whenever the circle encloses the pole s = tau.
    Node count doubles until two successive values agree to the relative
    tolerance.  include_residue=False returns the bare circle integral,
    which deep in the bulk is exactly N_tau - 1 and stays representable in
    log form long after the difference underflows in doubles.
    """
    tau, n = params.tau, params.n
    if not (0.0 < tau < 1.0):
        raise UsageError("integral_I_tau requires 0 < tau < 1")
    cap = max(_RADIUS_CAP_TAU, 0.5 * (1.0 + tau))
    base = min(frame.radius, cap)
    r, pole_inside = _choose_radius(base, tau, n, config.radius_offset)
    if base == cap:
        # never below the cap, which lies above tau: past tau = 0.96 the
        # clip alone would shrink the circle inside the pole it counts
        r = min(r, max(0.5 * (cap + 1.0) - 0.03, cap))
    if r >= _MAX_RADIUS_TAU:
        raise ContourError(f"contour radius {r:.6f} reaches the branch region at |s| = 1")
    if abs(r - tau) < _MIN_POLE_GAP * r / math.sqrt(n):
        raise ContourError("pole lies within 1e-3 r/sqrt(n) of the contour of radius r")
    return _nested_trapezoid(
        functools.partial(_quadrature_tau, frame, params, r),
        _start_count(config, n),
        pole_inside and include_residue,
        config,
        r,
        n,
        f"radius={r:.6g}",
    )


def integral_I_zero(
    params: ModelParams,
    zeta: complex,
    config: ContourConfig = DEFAULT_CONTOUR,
    include_residue: bool = True,
) -> LogMagnitudePhase:
    """Pole-normalized value N_0 = e^{-n F(1)} I for the tau = 0 phase.

    F(s) = zeta s - log s with pole at s = 1 and F(1) = zeta.  At zeta = 0
    the integral is the residue polynomial and equals 1 exactly.
    """
    n = params.n
    zeta = complex(zeta)
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        raise DomainError("zeta must be finite")
    if zeta == 0:
        if not include_residue:
            raise UsageError("zeta = 0 bypasses quadrature; no residue split exists")
        return _ONE

    base = 1.0 / abs(zeta)
    r, pole_inside = _choose_radius(base, 1.0, n, config.radius_offset)
    if abs(r - 1.0) < _MIN_POLE_GAP * r / math.sqrt(n):
        raise ContourError("pole lies within 1e-3 r/sqrt(n) of the contour of radius r")
    return _nested_trapezoid(
        functools.partial(_quadrature_zero, zeta, n, r),
        _start_count(config, n),
        pole_inside and include_residue,
        config,
        r,
        n,
        f"zeta={zeta!r}",
    )


def normalized_integral(
    params: ModelParams,
    z,
    u,
    v,
    config: ContourConfig = DEFAULT_CONTOUR,
    include_residue: bool = True,
) -> tuple[LogMagnitudePhase, complex]:
    """N and F(pole) for the kernel arguments (sqrt(n) z + u, sqrt(n) z + v).

    At tau = 0 the phase is F(s) = zeta s - log s with zeta the dot
    product of z + u/sqrt(n) and z + v/sqrt(n), so F(1) = zeta; for
    0 < tau < 1 it is the saddle frame of the z_pm pair.  The only place
    that chooses between integral_I_zero and integral_I_tau.
    """
    if params.tau == 0.0:
        rn = math.sqrt(params.n)
        z = as_point(params, z)
        zeta = complex(np.sum((z + as_point(params, u) / rn) * np.conj(z + as_point(params, v) / rn)))
        return integral_I_zero(params, zeta, config, include_residue), zeta
    frame = saddle_frame(params, *zpm_map(params, z, u, v))
    return integral_I_tau(params, frame, config, include_residue), frame.phase.F_at_pole()


def kernel_via_contour_log(
    params: ModelParams, z, w, config: ContourConfig = DEFAULT_CONTOUR
) -> LogMagnitudePhase:
    """K_n(sqrt(n) z, sqrt(n) w) through the contour representation.

    pi^{-d} prod_k sqrt(omega(sqrt n z_k) omega(sqrt n w_k)) e^{n F(pole)} N,
    the route independent of the degree recurrence; z and w are the
    unscaled droplet-coordinate points.
    """
    d, tau, n = params.d, params.tau, params.n
    z = as_point(params, z)
    w = as_point(params, w)
    rn = math.sqrt(n)
    log_w = 0.5 * sum(
        log_weight_omega(complex(rn * z[k]), tau) + log_weight_omega(complex(rn * w[k]), tau)
        for k in range(d)
    )
    big_n, f_pole = normalized_integral(params, z, np.zeros(d), rn * (w - z), config)
    pref = LogMagnitudePhase.from_log(complex(log_w - d * math.log(math.pi)) + n * f_pole)
    return big_n * pref


def max_principle_check(frame: SaddleFrame, grid_size: int = 10_000) -> float:
    """Largest violation of Re F(s) <= Re F(1/a) on the circle |s| = |a|^{-1}.

    Nonpositive (up to rounding) whenever the dominant-saddle inequality
    holds; the returned value is max over the grid of Re F(s) - Re F(1/a).
    """
    if grid_size < 8:
        raise DomainError("grid_size must be >= 8")
    theta = _trapezoid_nodes(grid_size)
    s = frame.radius * np.exp(1j * theta)
    re_f = frame.phase.F(s).real
    return float(np.max(re_f) - frame.F_at_a_inv.real)
