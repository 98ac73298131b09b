"""Stable evaluation of the single contour-integral kernel representation.

With q = 1 - tau^2, the kernel at (sqrt(n) z', sqrt(n) w') sees the pair,
besides its weights, only through X = sum_k z'_k conj(w'_k) and
Q = sum_k (z'_k - conj(w'_k))^2.  Cauchy's integral of Mehler's
generating function (DLMF 18.18.28) in the degree variable t gives, for
every 0 <= tau < 1, a weight factor times

    I = -(1/2 pi i) oint e^{n (G(t) - log t)} / ((t - 1) (1 - tau^2 t^2)^{d/2}) dt,
    G(t) = q (X t/(1 + tau t) - (tau Q/2) t^2/(1 - tau^2 t^2)),

over a small loop around the origin (s = tau t gives the s-plane form,
pole s = tau and phase geometry.PhaseFunction).  The loop is deformed to
a circle through the dominant saddle; when it crosses the simple pole at
t = 1 the residue is picked up.  Normalized by e^{-n G(1)} inside the
loop, the returned quantity

    N = (1 - tau^2)^{d/2} e^{-n G(1)} I,    G(1) = (1 - tau) X - tau Q/2,

is the order-one object of the edge expansions (N -> 1 deep in the bulk,
1/2 on the edge, 0 outside).  At tau = 0, G(t) = X t; nothing divides by
tau, so every node, circle and refusal is continuous as tau -> 0, down to
subnormal tau.

The saddle is t = 1/(tau a), tau a = w_+ w_- / 2, with w_pm the root of
larger modulus of zhat_pm +- sqrt(zhat_pm^2 - 2 tau), zhat_pm =
sqrt(q/2) (sqrt P +- sqrt Q)/2 and P = sum_k (z'_k + conj(w'_k))^2:
geometry's saddle of the z_pm pair times tau (zhat_pm = sqrt(tau) z_pm),
and X at tau = 0.  The circle |t| = r lies near 1/|tau a|, capped at
max(0.93, (1 + tau)/2)/tau (no cap at tau = 0) below the branch points
t = +-1/tau, and is nudged away from the pole, an uncapped circle at most
halfway to the branch points.  X, Q and P are summed coordinate by
coordinate; forming Q or P from X and the square sums loses accuracy on
near-real pairs.

The trapezoid rule on a circle converges geometrically in the node count
with rate set by the angular distance to the nearest singularity, here
the pole at relative distance ~ offset/sqrt(n); the default node count
64 sqrt(n) therefore already resolves it (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 2014).  The rules
are nested: the even-indexed half of the N start nodes is the N/2-node
rule, so a value certified against that embedded half costs N node
evaluations.  Only when the check fails does a doubling evaluate the
midpoints of the current rule, reusing its node sum.

Each pass reads a cached, read-only table of cos, sin, 1 -+ cos, sin 2
theta and 2 sin^2 theta and computes every node's log magnitude in real
arithmetic, free of cancellation near t = 1 and t = +-1/tau: with rho =
tau r, |1 -+ tau t|^2 = (1 - rho)^2 + 2 rho (1 -+ cos), t/(1 + tau t) =
r ((1 + cos) - (1 - rho) + i sin)/|1 + tau t|^2 and tau t^2/(1 - tau^2
t^2) = r rho ((1 - rho)(1 + rho) - 2 sin^2 + i sin 2 theta)/|1 - tau^2
t^2|^2, a fraction that is 0 at rho = 0 and then not formed.  Only the
nodes within 60 nats of the largest get a weight and a phase; the rest
add at most count e^-60 of it, below the sum's rounding, and the
cancellation guard counts each at that bound.  The turn (n - 1) theta of
the phase is reduced modulo 2 pi exactly, in integers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContourError, DegenerateSaddleError, DomainError, QuadratureError, UsageError
from .geometry import SaddleFrame, _outer_root
from .kernel import ModelParams, as_point, log_weight_omega
from .special import LogMagnitudePhase

__all__ = [
    "ContourConfig",
    "DEFAULT_CONTOUR",
    "integral_I_tau",
    "normalized_integral",
    "kernel_via_contour_log",
    "max_principle_check",
]

# Keep the circle out of the branch region of (1 - tau^2 t^2)^{d/2}: |tau t| < 0.999.
_MAX_RADIUS_TAU = 0.999
# Cap the base circle below the essential singularities at t = +-1/tau, at
# this bound on |tau t|.  Whenever the saddle circle exceeds the cap the
# configuration is bulk-like (the saddle lies outside the pole), the pole
# stays enclosed on either circle, and by Cauchy's theorem the value is
# unchanged.
_RADIUS_CAP_TAU = 0.93
# Refuse when the pole ends up closer than this many r/sqrt(n) units; the
# radius nudge is relative, so the guard is too.
_MIN_POLE_GAP = 1e-3
# A node this many nats below the largest of its pass gets no weight or phase
# and joins the sum as zero; the cancellation guard counts it at e^-_KEEP_NATS.
_KEEP_NATS = 60.0

@dataclass(frozen=True)
class ContourConfig:
    """Quadrature knobs for the circle contour.

    radius_offset is the relative radius shift in units of 1/sqrt(n): the
    circle is |t| = |tau a|^{-1} (1 +- radius_offset/sqrt(n)), with the
    sign chosen away from the pole.
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
    """Read-only table of cos, sin, 1 - cos, 1 + cos, sin 2 theta and
    2 sin^2 theta at the count equispaced angles 2 pi k / count, or at the
    count midpoints between them.

    1 -+ cos theta come from the half angle, as 2 sin^2 and 2 cos^2 of
    theta/2 = pi m / (2 count) with m = 2k (+ 1 at the midpoints),
    sin(theta/2) as sin(pi min(m, 2 count - m) / (2 count)) and cos(theta/2)
    as sin(pi (count - m) / (2 count)), the supplement and complement taken
    in integers; so 1 -+ cos, sin and 2 sin^2 keep their relative accuracy
    where the circle passes theta = 0, pi and 2 pi.  The tables are shared
    by every caller.
    """
    m = 2 * np.arange(count) + midpoints
    step = math.pi / (2 * count)
    sin_h, cos_h = np.sin(step * np.minimum(m, 2 * count - m)), np.sin(step * (count - m))
    cos, sin = np.cos(2.0 * step * m), 2.0 * sin_h * cos_h
    table = np.stack((cos, sin, 2.0 * sin_h**2, 2.0 * cos_h**2, 2.0 * sin * cos, 2.0 * sin * sin))
    table.setflags(write=False)
    return table


def _node_pass(node_values: _NodeValues, count: int, midpoints: bool = False) -> tuple[float, float, np.ndarray]:
    """One pass of the rule over the count nodes (or midpoints) of a node table.

    Returns the largest log magnitude, the L1 norm of the weights
    e^{log_mag - shift} and the terms weight * phase.  Only the nodes
    within _KEEP_NATS of the largest get a weight and a phase (numpy's exp
    is slow on the inputs that underflow); the others' terms are zero, and
    the L1 norm counts each at its bound e^-_KEEP_NATS.  Together they stay
    below the sum's own rounding for count < 2^30.
    """
    log_mag, phase_of = node_values(_trapezoid_nodes(count, midpoints), midpoints)
    shift = float(log_mag.max())
    if not shift < math.inf:  # nan or +inf
        raise DomainError("log magnitudes must be < +inf and not nan")
    keep = np.flatnonzero(log_mag >= shift - _KEEP_NATS)
    weights = np.exp(log_mag[keep] - shift)
    terms = np.zeros(count, dtype=complex)
    terms[keep] = weights * phase_of(keep)
    return shift, float(weights.sum()) + (count - keep.size) * math.exp(-_KEEP_NATS), terms


def _nested_trapezoid(
    node_values: _NodeValues, count: int, residue: bool, config: ContourConfig, r: float, n: int, where: str
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
    dropped ones at their bound.
    """
    shift, l1, terms = _node_pass(node_values, count)
    even_total = complex(terms[::2].sum())
    total = even_total + complex(terms[1::2].sum())

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
            mid_shift, mid_l1, terms = _node_pass(node_values, count, True)
            top = max(shift, mid_shift)
            old, mid = math.exp(shift - top), math.exp(mid_shift - top)
            total = total * old + complex(terms.sum()) * mid
            l1 = l1 * old + mid_l1 * mid
            shift = top
            count *= 2
        val = estimate(shift, total, count)
        l1_log = shift + math.log(l1) - math.log(count)  # l1 >= 1: the largest node weighs 1
        if residue:  # log(e^l1_log + 1)
            l1_log = max(l1_log, 0.0) + math.log1p(math.exp(-abs(l1_log)))
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


def _phase_on_circle(
    tau: float, x: complex, q_sum: complex, r: float, table: np.ndarray
) -> tuple[np.ndarray, Callable[..., np.ndarray], np.ndarray | None]:
    """Re G on |t| = r, Im G at given node indices, and |1 - tau^2 t^2|^2.

    G(t) = q X t/(1 + tau t) - (q Q/2) tau t^2/(1 - tau^2 t^2).  Each
    fraction's scale and real part (module docstring) is a row of one array,
    gathered once at the kept nodes.  At rho = tau r = 0 the second fraction
    (exactly 0) and |1 - tau^2 t^2|^2 (exactly 1; None) are not formed.
    """
    _, sin, _, one_plus_cos, sin_2, two_sin_sq = table
    rho = tau * r
    e, c0 = 1.0 - rho, (1.0 - rho) * (1.0 + rho)
    q = (1.0 - tau) * (1.0 + tau)
    qx, qq = q * x, 0.5 * q * q_sum
    rows = np.empty((4 if rho else 2, sin.size))  # a_scale, a_re[, b_scale, b_re]
    np.divide(r, e * e + 2.0 * rho * one_plus_cos, out=rows[0])  # over |1 + tau t|^2
    np.subtract(one_plus_cos, e, out=rows[1])
    re_g = rows[0] * (qx.real * rows[1] - qx.imag * sin)
    branch_sq = c0 * c0 + (2.0 * rho * rho) * two_sin_sq if rho else None
    if rho:
        np.divide(r * rho, branch_sq, out=rows[2])
        np.subtract(c0, two_sin_sq, out=rows[3])
        re_g -= rows[2] * (qq.real * rows[3] - qq.imag * sin_2)

    def im_g(keep: np.ndarray, sin: np.ndarray, sin_2: np.ndarray) -> np.ndarray:  # sin, sin 2 theta at keep
        a_scale, a_re, *b = rows.take(keep, axis=1)
        im = a_scale * (qx.real * sin + qx.imag * a_re)
        if b:
            im -= b[0] * (qq.real * sin_2 + qq.imag * b[1])
        return im

    return re_g, im_g, branch_sq


def _turn(n: int, keep: np.ndarray, midpoints: bool, count: int) -> np.ndarray:
    """(n - 1) theta modulo 2 pi at the nodes keep, reduced in integers:
    theta = 2 pi m / (2 count) with m = 2k, or 2k + 1 at the midpoints."""
    step = (n - 1) % (2 * count)  # (n - 1) m = 2 (n - 1) k (+ n - 1), modulo 2 count
    return ((2 * step * keep + step * midpoints) % (2 * count)) * (math.pi / count)


def _g_at_pole(tau: float, x: complex, q_sum: complex) -> complex:
    """G(1) = (1 - tau) X - tau Q/2, the phase at the pole t = 1."""
    return (1.0 - tau) * x - 0.5 * tau * q_sum


def _quadrature(
    params: ModelParams, x: complex, q_sum: complex, r: float, table: np.ndarray, midpoints: bool
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Per-node log magnitude of the normalized integrand on |t| = r, and its phases.

    Contribution of node t, before the 1/count weight: -e^{n (G(t) - log t
    - G(1))} (1-tau^2)^{d/2} t / ((t - 1) (1 - tau^2 t^2)^{d/2}), with
    t - 1 = -((1 - r) + r (1 - cos)) + i r sin.  The phases take the
    principal branch of (1 - tau^2 t^2)^{d/2}, whose real part every node
    must keep positive; at rho = tau r = 0 it is 1 and adds nothing.
    """
    tau, d, n = params.tau, params.d, params.n
    rho = tau * r
    # Re(1 - tau^2 t^2) = (1 - rho^2) + rho^2 2 sin^2 stays positive on the circle iff rho < 1
    if not rho < 1.0:
        raise ContourError("contour touches the branch region of (1 - tau^2 t^2)^{d/2}")
    re_g, im_g, branch_sq = _phase_on_circle(tau, x, q_sum, r, table)
    f_pole, log_r = _g_at_pole(tau, x, q_sum), math.log(r)
    to_pole = (1.0 - r) ** 2 + 2.0 * r * table[2]  # |t - 1|^2, with 1 - cos in row 2
    log_mag = n * (re_g - (log_r + f_pole.real)) - 0.5 * np.log(to_pole)
    if rho:
        log_mag -= (0.25 * d) * np.log(branch_sq)
    log_mag += log_r + 0.5 * d * math.log1p(-tau * tau)

    def phase_of(keep: np.ndarray) -> np.ndarray:
        _, sin, one_minus_cos, _, sin_2, two_sin_sq = table.take(keep, axis=1)
        phi = n * (im_g(keep, sin, sin_2) - f_pole.imag)
        phi -= _turn(n, keep, midpoints, table.shape[1])
        phi -= np.arctan2(r * sin, (r - 1.0) - r * one_minus_cos)  # arg(t - 1)
        if rho:
            branch_re = (1.0 - rho) * (1.0 + rho) + rho * rho * two_sin_sq
            phi -= (0.5 * d) * np.arctan2(-rho * rho * sin_2, branch_re)
        return np.exp(1j * (phi + math.pi))

    return log_mag, phase_of


def _saddle_t(tau: float, x: complex, q_sum: complex, p_sum: complex) -> complex:
    """tau a = w_+ w_- / 2, the reciprocal of the dominant saddle in t.

    The larger of zhat_pm comes from the sum of the roots, the other from
    zhat_+ zhat_- = q X / 2, so neither cancels when |X| is small against
    |P|.  Refuses focal inputs, zhat_pm^2 within 1e-10 tau of 2 tau, where
    the saddles have order two and the quadratic theory breaks down.
    """
    q = (1.0 - tau) * (1.0 + tau)
    root_p, root_q = cmath.sqrt(p_sum), cmath.sqrt(q_sum)
    if abs(root_p + root_q) < abs(root_p - root_q):
        root_q = -root_q
    hat_p = 0.5 * math.sqrt(0.5 * q) * (root_p + root_q)
    hat_m = 0.5 * q * x / hat_p if hat_p else hat_p
    if min(abs(hat_p * hat_p - 2.0 * tau), abs(hat_m * hat_m - 2.0 * tau)) < 1e-10 * tau:
        raise DegenerateSaddleError("saddle points coincide at a focal input")
    return 0.5 * _outer_root(hat_p, 2.0 * tau) * _outer_root(hat_m, 2.0 * tau)


def integral_I_tau(
    params: ModelParams,
    x: complex,
    q_sum: complex,
    p_sum: complex,
    config: ContourConfig = DEFAULT_CONTOUR,
    include_residue: bool = True,
) -> LogMagnitudePhase:
    """Pole-normalized contour value N = (1-tau^2)^{d/2} e^{-n G(1)} I of the
    pair invariants X = x, Q = q_sum and P = p_sum, for every 0 <= tau < 1.

    Trapezoid rule on the circle |t| = |tau a|^{-1} (1 +- offset/sqrt(n)),
    capped below the branch points; the residue term +1 is added whenever
    the circle encloses the pole t = 1.  Node count doubles until two
    successive values agree to the relative tolerance.
    include_residue=False returns the bare circle integral, which deep in
    the bulk is exactly N - 1 and stays representable in log form long
    after the difference underflows in doubles.  At tau = 0 and X = 0 the
    integral is the residue polynomial and equals 1 exactly.
    """
    tau, n = params.tau, params.n
    x, q_sum, p_sum = complex(x), complex(q_sum), complex(p_sum)
    if not all(cmath.isfinite(c) for c in (x, q_sum, p_sum)):
        raise DomainError("pair invariants must be finite")
    if tau == 0.0 and x == 0:
        if not include_residue:
            raise UsageError("X = 0 at tau = 0 bypasses quadrature; no residue split exists")
        return LogMagnitudePhase(0.0, 1.0 + 0.0j)
    ta = abs(_saddle_t(tau, x, q_sum, p_sum))
    if not ta > 0.0:  # tau = 0 with P and Q underflowing to 0 while X does not
        raise ContourError("the saddle lies at infinity: tau a rounds to 0")
    cap = max(_RADIUS_CAP_TAU, 0.5 * (1.0 + tau))
    capped = tau >= cap * ta  # 1/|tau a| >= cap/tau, never at tau = 0
    r, pole_inside = _choose_radius(cap / tau if capped else 1.0 / ta, 1.0, n, config.radius_offset)
    if capped:
        # never below the cap, which lies above the pole: past tau = 0.96
        # the clip alone would shrink the circle inside the pole it counts
        r = min(r, max(0.5 * (cap + 1.0) - 0.03, cap) / tau)
    elif tau > 0.0:  # in s, at most halfway from the saddle or pole circle to 1
        r = min(r, 0.5 * (max(tau / ta, tau) + 1.0) / tau)
    # refusals state the radius in s = tau t, where the rules above are set
    shown = tau * r if tau > 0.0 else r
    if tau * r >= _MAX_RADIUS_TAU:
        raise ContourError(f"contour radius {shown:.6f} reaches the branch region at |s| = 1")
    if abs(r - 1.0) < _MIN_POLE_GAP * r / math.sqrt(n):
        raise ContourError("pole lies within 1e-3 r/sqrt(n) of the contour of radius r")
    return _nested_trapezoid(
        functools.partial(_quadrature, params, x, q_sum, r),
        _start_count(config, n),
        pole_inside and include_residue,
        config,
        shown,
        n,
        f"radius={shown:.6g}",
    )


def _pole_normalized(
    params: ModelParams, zp: np.ndarray, wp: np.ndarray, config: ContourConfig, include_residue: bool
) -> tuple[LogMagnitudePhase, complex]:
    """N and G(1) of the validated pair (z', w'), invariants summed coordinate by coordinate."""
    wc = wp.conj()
    x = complex((zp * wc).sum())
    q_sum, p_sum = complex(((zp - wc) ** 2).sum()), complex(((zp + wc) ** 2).sum())
    return integral_I_tau(params, x, q_sum, p_sum, config, include_residue), _g_at_pole(params.tau, x, q_sum)


def normalized_integral(
    params: ModelParams,
    z,
    u,
    v,
    config: ContourConfig = DEFAULT_CONTOUR,
    include_residue: bool = True,
) -> tuple[LogMagnitudePhase, complex]:
    """N and G(1) for the kernel arguments (sqrt(n) z + u, sqrt(n) z + v).

    The pair is z' = z + u/sqrt(n), w' = z + v/sqrt(n); its invariants X,
    Q and P feed the one integral integral_I_tau for every 0 <= tau < 1,
    and G(1) = (1 - tau) X - tau Q/2 (= X at tau = 0) is the phase at the
    pole.  Each point is validated once.
    """
    z = as_point(params, z)
    rn = math.sqrt(params.n)
    zp, wp = z + as_point(params, u) / rn, z + as_point(params, v) / rn
    return _pole_normalized(params, zp, wp, config, include_residue)


def kernel_via_contour_log(
    params: ModelParams, z, w, config: ContourConfig = DEFAULT_CONTOUR
) -> LogMagnitudePhase:
    """K_n(sqrt(n) z, sqrt(n) w) through the contour representation.

    pi^{-d} prod_k sqrt(omega(sqrt n z_k) omega(sqrt n w_k)) e^{n G(1)} N,
    the route independent of the degree recurrence; z and w are the
    unscaled droplet-coordinate points, validated once.  The same integral
    serves every 0 <= tau < 1, continuous as tau -> 0.
    """
    d, tau, n = params.d, params.tau, params.n
    z, w = as_point(params, z), as_point(params, w)
    rn = math.sqrt(n)
    scaled = zip((rn * z).tolist(), (rn * w).tolist())
    log_w = 0.5 * sum(log_weight_omega(zk, tau) + log_weight_omega(wk, tau) for zk, wk in scaled)
    big_n, f_pole = _pole_normalized(params, z, w, config, True)
    pref = LogMagnitudePhase.from_log(complex(log_w - d * math.log(math.pi)) + n * f_pole)
    return big_n * pref


def max_principle_check(frame: SaddleFrame, grid_size: int = 10_000) -> float:
    """Largest violation of Re F(s) <= Re F(1/a) on the circle |s| = |a|^{-1}.

    Nonpositive (up to rounding) whenever the dominant-saddle inequality
    holds; the returned value is max over the grid of Re F(s) - Re F(1/a).
    With s = tau t, Re F = Re G(t) - log |t| comes from the node table, as
    the node magnitudes do, with X = 2 tau z_+ z_-/q and Q = 2 tau
    (z_+ - z_-)^2/q of the frame.
    """
    if grid_size < 8:
        raise DomainError("grid_size must be >= 8")
    tau = frame.phase.tau
    scale = 2.0 * tau / ((1.0 - tau) * (1.0 + tau))
    r = frame.radius / tau
    x, q_sum = scale * frame.z_plus * frame.z_minus, scale * frame.phase.q_sq
    re_g = _phase_on_circle(tau, x, q_sum, r, _trapezoid_nodes(grid_size))[0]
    return float(re_g.max() - math.log(r) - frame.F_at_a_inv.real)
