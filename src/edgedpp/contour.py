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

Each pass reads a cached, read-only table of cos, sin and 1 -+ cos (from
the half angle) and computes every node's log magnitude in real
arithmetic: |1 -+ s|^2 = (1 - r)^2 + 2 r (1 -+ cos) and the like, free of
cancellation near s = +-1.  Only the nodes within 60 nats of the largest
get a phase; the rest add at most count e^-60 of it, below the sum's
rounding, and stay in the cancellation guard.  The turn (n - 1) theta of
the phase is reduced modulo 2 pi exactly, in integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContourError, DomainError, QuadratureError, UsageError
from .geometry import PhaseFunction, SaddleFrame, saddle_frame, zpm_map
from .kernel import ModelParams, as_point, log_weight_omega
from .special import LogMagnitudePhase

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
# A node this many nats below the largest of its pass gets no phase and
# joins the sum as zero (it stays in the cancellation guard's L1 norm).
_KEEP_NATS = 60.0

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


# (node table, midpoints) -> every node's log magnitude, and the phases at given node indices
_NodeValues = Callable[[np.ndarray, bool], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]


@functools.lru_cache(maxsize=32)
def _trapezoid_nodes(count: int, midpoints: bool = False) -> np.ndarray:
    """Read-only table of cos, sin, 1 - cos and 1 + cos at the count equispaced
    angles 2 pi k / count, or at the count midpoints between them.

    1 -+ cos theta come from the half angle, as 2 sin^2 and 2 cos^2 of
    theta/2 = pi m / (2 count) with m = 2k (+ 1 at the midpoints), and
    cos(theta/2) as sin(pi (count - m) / (2 count)), the complement taken in
    integers; so both keep their relative accuracy where the circle passes
    s = +-1.  The tables are shared by every caller.
    """
    m = 2 * np.arange(count) + midpoints
    step = math.pi / (2 * count)
    sin_h, cos_h = np.sin(step * m), np.sin(step * (count - m))
    table = np.stack((np.cos(2.0 * step * m), 2.0 * sin_h * cos_h, 2.0 * sin_h**2, 2.0 * cos_h**2))
    table.setflags(write=False)
    return table


def _node_pass(
    node_values: _NodeValues, count: int, midpoints: bool = False
) -> tuple[float, np.ndarray, np.ndarray]:
    """One pass of the rule over the count nodes (or midpoints) of a node table.

    Returns the largest log magnitude, every node's weight
    e^{log_mag - shift} (the cancellation guard sums them all) and the
    terms weight * phase.  Only the nodes within _KEEP_NATS of the largest
    get a phase; the others' terms are zero.  Each of those would add at
    most e^-60 of the largest, so together they stay below the sum's own
    rounding for count < 2^30.
    """
    log_mag, phase_of = node_values(_trapezoid_nodes(count, midpoints), midpoints)
    shift = float(np.max(log_mag))
    if not shift < math.inf:  # nan or +inf
        raise DomainError("log magnitudes must be < +inf and not nan")
    weights = np.exp(log_mag - shift)
    keep = np.flatnonzero(log_mag >= shift - _KEEP_NATS)
    terms = np.zeros(count, dtype=complex)
    terms[keep] = weights[keep] * phase_of(keep)
    return shift, weights, terms


def _nested_trapezoid(
    node_values: _NodeValues,
    count: int,
    residue: bool,
    config: ContourConfig,
    r: float,
    n: int,
    where: str,
) -> LogMagnitudePhase:
    """Adaptive trapezoid rule on the circle, certified by its embedded half.

    node_values gives the integrand sum's terms without the 1/count
    weight.  The count (even) start nodes are evaluated once; their
    even-indexed half is the count/2-node rule, and T_N agreeing with that
    T_{N/2} to the relative tolerance ends the loop at N evaluations.
    Otherwise each doubling evaluates only the count midpoints of the
    current rule, T_2N = (S_N + S_mid) / 2N with S the plain node sums,
    until two successive estimates agree.  The sums are kept as e^shift
    times a complex total and an L1 norm.  The residue +1 joins each
    estimate after the weighting.  Every estimate from T_N on passes the
    cancellation guard, whose L1 norm covers every evaluated node, the
    dropped ones included.
    """
    shift, weights, terms = _node_pass(node_values, count)
    even_total = complex(np.sum(terms[::2]))
    total = even_total + complex(np.sum(terms[1::2]))
    l1 = float(np.sum(weights))

    def estimate(shift: float, total: complex, nodes: int) -> LogMagnitudePhase:
        shift -= math.log(nodes)
        if residue:
            top = max(shift, 0.0)
            total = total * math.exp(shift - top) + math.exp(-top)
            shift = top
        return LogMagnitudePhase.from_shifted(shift, total)

    prev = estimate(shift, even_total, count // 2)
    for doubling in range(config.max_doublings + 1):
        if doubling:
            mid_shift, weights, terms = _node_pass(node_values, count, True)
            top = max(shift, mid_shift)
            old, mid = math.exp(shift - top), math.exp(mid_shift - top)
            total = total * old + complex(np.sum(terms)) * mid
            l1 = l1 * old + float(np.sum(weights)) * mid
            shift = top
            count *= 2
        val = estimate(shift, total, count)
        l1_log = shift + math.log(l1) - math.log(count)  # l1 >= 1: the largest node weighs 1
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


def _g_parts(phase: PhaseFunction, r: float, table: np.ndarray) -> tuple[np.ndarray, ...]:
    """Re G on |s| = r for G(s) = F(s) + log s - log tau = (P/2) s/(1+s) - (Q/2) s/(1-s),
    the real and imaginary parts of s/(1+s) and s/(1-s), and |1 - s^2|^2.

    |1 -+ s|^2 = (1 - r)^2 + 2 r (1 -+ cos), and s/(1 +- s) has numerator
    r cos +- r^2 + i r sin, written as r ((1 + cos) - (1 - r)) and
    r ((1 - r) - (1 - cos)): free of cancellation near s = +-1.
    """
    _, sin, one_minus_cos, one_plus_cos = table
    e = 1.0 - r
    to_minus, to_plus = e * e + 2.0 * r * one_minus_cos, e * e + 2.0 * r * one_plus_cos
    parts = (r * (one_plus_cos - e) / to_plus, r * sin / to_plus)
    parts += (r * (e - one_minus_cos) / to_minus, r * sin / to_minus)
    p, q = 0.5 * phase.p_sq, 0.5 * phase.q_sq
    re_g = p.real * parts[0] - p.imag * parts[1] - q.real * parts[2] + q.imag * parts[3]
    return (re_g, *parts, to_minus * to_plus)


def _turn(n: int, keep: np.ndarray, midpoints: bool, count: int) -> np.ndarray:
    """(n - 1) theta modulo 2 pi at the nodes keep, reduced in integers:
    theta = 2 pi m / (2 count) with m = 2k, or 2k + 1 at the midpoints."""
    twice = 2 * count
    return ((n - 1) % twice * (2 * keep + midpoints) % twice) * (math.pi / count)


def _quadrature_tau(
    frame: SaddleFrame, params: ModelParams, r: float, table: np.ndarray, midpoints: bool
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Per-node log magnitude of the normalized integrand on |s| = r, and its phases.

    Contribution of node s, before the 1/count weight: -e^{n (F(s) - F(tau))}
    (1-tau^2)^{d/2} * s / ((s - tau) (1 - s^2)^{d/2}).  The phases take the
    principal branch of (1 - s^2)^{d/2}, whose real part every node must
    keep positive.
    """
    tau, d, n = params.tau, params.d, params.n
    cos, sin, one_minus_cos, _ = table
    branch_re = (1.0 - r) * (1.0 + r) + 2.0 * r * r * sin * sin  # Re(1 - s^2)
    if np.any(branch_re <= 0.0):
        raise ContourError("contour touches the branch region of (1 - s^2)^{d/2}")
    re_g, *parts, branch_sq = _g_parts(frame.phase, r, table)
    f_pole, log_r = frame.phase.F_at_pole(), math.log(r)
    log_mag = n * (re_g + (frame.phase.log_tau - log_r - f_pole.real))
    to_pole = (r - tau) ** 2 + 2.0 * tau * r * one_minus_cos  # |s - tau|^2
    log_mag -= 0.5 * np.log(to_pole) + (0.25 * d) * np.log(branch_sq)
    log_mag += log_r + 0.5 * d * math.log1p(-tau * tau)

    def phase_of(keep: np.ndarray) -> np.ndarray:
        p, q = 0.5 * frame.phase.p_sq, 0.5 * frame.phase.q_sq
        plus_re, plus_im, minus_re, minus_im = (part[keep] for part in parts)
        im_g = p.real * plus_im + p.imag * plus_re - q.real * minus_im - q.imag * minus_re
        r_sin = r * sin[keep]
        arg_pole = np.arctan2(r_sin, (r - tau) - r * one_minus_cos[keep])
        arg_branch = np.arctan2(-2.0 * r * r_sin * cos[keep], branch_re[keep])
        phi = n * (im_g - f_pole.imag) - _turn(n, keep, midpoints, table.shape[1])
        return np.exp(1j * (phi - arg_pole - (0.5 * d) * arg_branch + math.pi))

    return log_mag, phase_of


def _quadrature_zero(
    zeta: complex, n: int, r: float, table: np.ndarray, midpoints: bool
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Per-node log magnitude of the tau = 0 integrand on |s| = r, and its phases.

    Contribution of node s, before the 1/count weight: -e^{n (zeta s - log s
    - zeta)} * s / (s - 1), with s - 1 = -((1 - r) + r (1 - cos)) + i r sin.
    """
    _, sin, one_minus_cos, _ = table
    to_one, r_sin, log_r = (1.0 - r) + r * one_minus_cos, r * sin, math.log(r)  # 1 - r cos
    log_mag = n * (-(zeta.real * to_one + zeta.imag * r_sin) - log_r)
    log_mag -= 0.5 * np.log((1.0 - r) ** 2 + 2.0 * r * one_minus_cos)  # |s - 1|^2
    log_mag += log_r

    def phase_of(keep: np.ndarray) -> np.ndarray:
        x, y = to_one[keep], r_sin[keep]
        phi = n * (zeta.real * y - zeta.imag * x) - _turn(n, keep, midpoints, table.shape[1])
        return np.exp(1j * (phi - np.arctan2(y, -x) + math.pi))

    return log_mag, phase_of


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
    Re F on the circle comes from the node table, as the node magnitudes do.
    """
    if grid_size < 8:
        raise DomainError("grid_size must be >= 8")
    r = frame.radius
    re_g = _g_parts(frame.phase, r, _trapezoid_nodes(grid_size))[0]
    return float(np.max(re_g) + (frame.phase.log_tau - math.log(r)) - frame.F_at_a_inv.real)
