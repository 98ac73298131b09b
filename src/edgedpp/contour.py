"""Stable evaluation of the single contour-integral kernel representation.

With q = 1 - tau^2, the kernel at (sqrt(n) z', sqrt(n) w') sees the pair,
besides its weights, only through X = sum_k z'_k conj(w'_k) and
Q = sum_k (z'_k - conj(w'_k))^2.  Cauchy's integral of Mehler's
generating function (DLMF 18.18.28) in the degree variable t gives, for
every 0 <= tau < 1, a weight factor times

    I = -(1/2 pi i) oint e^{n (G(t) - log t)} / ((t - 1) (1 - tau^2 t^2)^{d/2}) dt,
    G(t) = q (X t/(1 + tau t) - (tau Q/2) t^2/(1 - tau^2 t^2)),

over a small loop around the origin (s = tau t gives the s-plane form
with pole s = tau), deformed to a circle through the dominant saddle;
when it crosses the simple pole at t = 1 the residue is picked up.  The
returned quantity

    N = (1 - tau^2)^{d/2} e^{-n G(1)} I,    G(1) = (1 - tau) X - tau Q/2,

is the order-one object of the edge expansions (N -> 1 deep in the bulk,
1/2 on the edge, 0 outside).  Nothing divides by tau, so every node,
circle and refusal is continuous as tau -> 0, down to subnormal tau.

The saddle is t = 1/(tau a), tau a = w_+ w_- / 2, with w_pm the root of
larger modulus of zhat_pm +- sqrt(zhat_pm^2 - 2 tau), zhat_pm =
sqrt(q/2) (sqrt P +- sqrt Q)/2 and P = sum_k (z'_k + conj(w'_k))^2 (X at
tau = 0).  The circle |t| = r lies near 1/|tau a|, capped at
max(0.93, (1 + tau)/2)/tau below the branch points t = +-1/tau, and is
nudged away from the pole, an uncapped circle at most halfway to the
branch points.  A saddle past |t| ~ 1e154, for pairs near the origin at
tau < 7.5e-155, gives way to the circle |t| = 1e150, which encloses the
pole: by Cauchy's theorem N is the same.  At n <= 64 a circle that keeps
its residue then moves in to where the start rule settles, as Bornemann
(Found. Comput. Math. 2011) weighs a Cauchy radius: to |s| = 0.8
tol^(2/N0), at which the branch points' bound (tau r)^(N0/2) on the
error of the N0/2-node half meets the tolerance, but by at most 6 nats of
cancellation n log(r/r') against the t^-n of the integrand; a circle
crossing the pole drops its residue, and N is the same.  Past n = 64 the
budget allows little move, and near tau = 1 the moved circles refuse
more pairs (from n = 379 in a sweep).  X, Q and P are summed
coordinate by coordinate; forming Q or P from X and the square sums
loses accuracy on near-real pairs.
The same zhat_pm, saddles and phase F(t) = G(t) - log t with its
derivatives (_hat_z, _saddles_t, _phase_t) are the only ones the edge
expansions of saddle and the max_principle experiment use, for every
0 <= tau < 1.

The trapezoid rule on a circle converges geometrically in the node count
at a rate set by the nearest singularity, the pole at relative distance
~ offset/sqrt(n), whose N-node aliasing is exact (Trefethen and Weideman,
SIAM Review 2014): each estimate cancels it, adding 1/(r^N - 1) on a
circle |t| = r around the pole, -r^N/(1 - r^N) beside it.  The start
count 32 sqrt(n) resolves the rest, ~ 1/sqrt(n) wide about the saddle.
The rules are nested: the even-indexed half of the N start nodes is the
N/2-node rule, so a value certified against it costs N node evaluations;
only a failed check doubles, evaluating the midpoints of the current rule.

Each pass computes every node's log magnitude in real arithmetic from a
cached table of cos, sin, 1 -+ cos, sin 2 theta and 2 sin^2 theta, free
of cancellation near t = 1 and t = +-1/tau: with rho = tau r,
|1 -+ tau t|^2 = (1 - rho)^2 + 2 rho (1 -+ cos), t/(1 + tau t) =
r ((1 + cos) - (1 - rho) + i sin)/|1 + tau t|^2 and tau t^2/(1 - tau^2
t^2) = r rho ((1 - rho)(1 + rho) - 2 sin^2 + i sin 2 theta)/|1 - tau^2
t^2|^2, not formed at rho = 0.  Only the nodes within 60 nats of the
largest get a weight and a phase; the rest add at most count e^-60 of it,
below the sum's rounding.  The turn (n - 1) theta of the phase is reduced
modulo 2 pi in integers.  The pairs of one call run together in row blocks
of at most 4,096 nodes, which stay in cache (20 rows at the old 512-node
start in one array ran no faster than one row per call); each row gets the
floats of its one-row call.  A lone row keeps its numbers as floats and
its arrays 1-D.  N comes from integral_I_tau (one row of invariants) or
normalized_integral_many (edge-scaled pairs), the kernel from
kernel_via_contour_log (one pair) or kernel_via_contour_log_many.  The
one-pair calls set up their row directly, without the batch path's row
lists, block loop and array round trips, about a tenth of their time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContourError, DegenerateSaddleError, DomainError, EdgeDppError, QuadratureError, UsageError
from .kernel import ModelParams, _as_points, as_point, log_weight_omega
from .special import LogMagnitudePhase

__all__ = [
    "ContourConfig",
    "DEFAULT_CONTOUR",
    "integral_I_tau",
    "normalized_integral_many",
    "kernel_via_contour_log",
    "kernel_via_contour_log_many",
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
# The circle for a saddle past the node arithmetic (r^2 overflows, r > 1.3e154,
# which needs tau < 7.5e-155): it encloses the pole far inside the branch
# points, so by Cauchy's theorem N is unchanged, and G(t) is O(1) on it.
_FAR_RADIUS = 1e150
# A node this many nats below the largest of its pass gets no weight or phase
# and joins the sum as zero.  The cancellation guard's L1 norm leaves it out:
# the largest kept node weighs 1, so each L1 norm is at least 1, and the
# dropped nodes' at most count e^-_KEEP_NATS stays below its rounding for
# count < 2^30.
_KEEP_NATS = 60.0
# The rows of one call run the rule together in blocks of at most this many
# start nodes, whose arrays stay in cache.
_BLOCK_NODES = 4096
# A row at n <= _SETTLE_MAX_N keeping its residue moves its circle in to |s| =
# _SETTLE_FACTOR tol^(2/N0), where the N0/2-node half's error (tau r)^(N0/2)
# meets the tolerance, by at most _SETTLE_NATS of cancellation, n log(r/r').
# From sweeps of representation_equivalence (seeds 1-10, 20260401) and of near-
# edge draws at tau in [0.9, 0.999]: factor 1.0 (0.9) evaluates 38% (13%) more
# nodes, 0.6 2% fewer at 3 times the route gap; 4 nats 8% more, no budget 5
# more refusals at n < 50; with no n limit the draws refuse 9 more, from n = 379.
_SETTLE_MAX_N, _SETTLE_FACTOR, _SETTLE_NATS = 64, 0.8, 6.0

@dataclass(frozen=True)
class ContourConfig:
    """Quadrature knobs for the circle contour.

    radius_offset is the relative radius shift in units of 1/sqrt(n): the
    circle is |t| = |tau a|^{-1} (1 +- radius_offset/sqrt(n)), with the
    sign chosen away from the pole.
    """

    node_count: int = 128
    radius_offset: float = 1.0
    tolerance: float = 1e-10
    max_doublings: int = 9

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


@functools.lru_cache(maxsize=32)
def _trapezoid_nodes(count: int, midpoints: bool = False) -> np.ndarray:
    """Shared read-only table of cos, sin, 1 - cos, 1 + cos, sin 2 theta and
    2 sin^2 theta at the count angles 2 pi k / count, or at their midpoints.

    1 -+ cos come from the half angle theta/2 = pi m / (2 count), m = 2k
    (+ 1 at the midpoints), as 2 sin^2 and 2 cos^2 of it, with sin(theta/2)
    = sin(pi min(m, 2 count - m) / (2 count)) and cos(theta/2) = sin(pi
    (count - m) / (2 count)) taken in integers, so that 1 -+ cos, sin and
    2 sin^2 keep their relative accuracy at theta = 0, pi and 2 pi.
    """
    m = 2 * np.arange(count) + midpoints
    step = math.pi / (2 * count)
    sin_h, cos_h = np.sin(step * np.minimum(m, 2 * count - m)), np.sin(step * (count - m))
    cos, sin = np.cos(2.0 * step * m), 2.0 * sin_h * cos_h
    table = np.stack((cos, sin, 2.0 * sin_h**2, 2.0 * cos_h**2, 2.0 * sin * cos, 2.0 * sin * sin))
    table.setflags(write=False)
    return table


def _node_pass(node_values: Callable, rows: list, count: int, midpoints: bool = False) -> tuple[list, list, np.ndarray]:
    """One pass over the count nodes (or midpoints) for the given rows of a
    block: each row's largest log magnitude, the L1 norm of its weights
    e^{log_mag - shift}, and its terms weight * phase, a row of a (rows,
    count) array.  Only nodes within _KEEP_NATS of their row's largest get
    a weight and a phase; the others' terms are zero and the L1 norm leaves
    them out."""
    log_mag, phase_of = node_values(rows, _trapezoid_nodes(count, midpoints), midpoints)
    if log_mag.ndim == 1:  # one row: its numbers are floats and need no row index
        shift = float(np.maximum.reduce(log_mag))
        keep = (log_mag >= (shift - _KEEP_NATS if shift < math.inf else math.nan)).nonzero()[0]
        weights = np.exp(log_mag[keep] - shift)
        terms = np.zeros(count, dtype=complex)
        terms[keep] = weights * phase_of(None, keep, keep)
        return [shift], [float(np.add.reduce(weights))], terms[None]
    shift = log_mag.max(axis=1)
    floor = shift - _KEEP_NATS
    floor[~(shift < math.inf)] = math.nan
    flat = np.flatnonzero(log_mag >= floor[:, None])  # the kept nodes' flat indices, rows and nodes
    at_row, at_node = np.divmod(flat, count)
    bounds = [0, *np.searchsorted(at_row, range(1, len(rows))).tolist(), flat.size]
    weights = np.exp(log_mag.reshape(-1)[flat] - shift[at_row])
    terms = np.zeros(log_mag.shape, dtype=complex)
    terms.reshape(-1)[flat] = weights * phase_of(at_row, at_node, flat)
    return shift.tolist(), [float(weights[a:b].sum()) for a, b in zip(bounds, bounds[1:])], terms


def _nested_trapezoid(node_values: Callable, count: int, circles: list, config: ContourConfig, n: int) -> list:
    """Adaptive trapezoid rule for each row of a block, certified by its
    embedded half: the row's value, or its error.

    The count (even) start nodes are evaluated once; their even-indexed
    half is the count/2-node rule, and T_N agreeing with it to the relative
    tolerance ends a row.  The other rows double together, a shrinking
    active set, each doubling evaluating only the midpoints: T_2N = (S_N +
    S_mid) / 2N with S the plain node sums, kept as e^shift times a complex
    total and an L1 norm; circles are the rows' (r, residue, stated radius).
    Each estimate, and the guard's L1 norm of every evaluated node, joins
    the residue +1 and the pole part's N-node aliasing e^-a/(-expm1(-a)),
    a = N |log r|, added inside |t| = r and subtracted outside (the L1 norm
    adds it).  A row whose largest log magnitude is nan or +inf is refused."""
    out: list = [None] * len(circles)

    def estimate(i: int, shift: float, total, nodes: int, alias_sign: float) -> tuple:
        """(top, sum / e^top) of e^shift total / nodes, the residue and alias_sign times the alias."""
        r, residue, _ = circles[i]
        a = nodes * abs(math.log(r))
        alias, shift = -a - math.log(-math.expm1(-a)), shift - math.log(nodes)
        top = max(shift, alias, 0.0 if residue else alias)
        total = total * math.exp(shift - top) + alias_sign * math.exp(alias - top)
        return top, total + math.exp(-top) if residue else total

    active = list(range(len(circles)))
    shift, l1, terms = _node_pass(node_values, active, count)
    prev, odd = np.add.reduce(terms[:, ::2], axis=1).tolist(), np.add.reduce(terms[:, 1::2], axis=1).tolist()
    total = [half + rest for half, rest in zip(prev, odd)]
    for doubling in range(config.max_doublings + 1):
        if doubling:
            size = max(1, _BLOCK_NODES // count)  # the midpoint passes keep the block cap, as memory grows with count
            for rows in (active[start : start + size] for start in range(0, len(active), size)):
                mid_shift, mid_l1, terms = _node_pass(node_values, rows, count, True)
                for i, m_shift, m_l1, m_total in zip(rows, mid_shift, mid_l1, terms.sum(axis=1).tolist()):
                    top = max(shift[i], m_shift)
                    old, mid = math.exp(shift[i] - top), math.exp(m_shift - top)
                    total[i] = total[i] * old + m_total * mid
                    l1[i] = l1[i] * old + m_l1 * mid
                    shift[i] = top if m_shift < math.inf else m_shift
            count *= 2
        unsettled = []
        for i in active:
            if not shift[i] < math.inf:  # nan or +inf
                out[i] = DomainError("log magnitudes must be < +inf and not nan")
                continue
            sign = 1.0 if circles[i][0] > 1.0 else -1.0
            if not doubling:
                prev[i] = LogMagnitudePhase.from_shifted(*estimate(i, shift[i], prev[i], count // 2, sign))
            val = LogMagnitudePhase.from_shifted(*estimate(i, shift[i], total[i], count, sign))
            top, norm = estimate(i, shift[i], l1[i], count, 1.0)
            try:  # l1[i] >= 1, as the largest node weighs 1
                _reject_hopeless_cancellation(top + math.log(norm), val, circles[i][2], n)
            except ContourError as exc:
                out[i] = exc
                continue
            a, b = val.log_mag, prev[i].log_mag  # converged: two exact zeros, or a relative change within tolerance
            if a == b == -math.inf or (min(a, b) > -math.inf and abs(val.ratio_to(prev[i]) - 1.0) <= config.tolerance):
                out[i] = val
            else:
                prev[i] = val
                unsettled.append(i)
        active = unsettled
        if not active:
            return out
    for i in active:
        out[i] = QuadratureError(f"contour integral did not converge: n={n}, radius={circles[i][2]:.6g}, "
                                 f"final node count {count}, tolerance {config.tolerance:g}")
    return out


def _start_count(config: ContourConfig, n: int) -> int:
    """Start node count, rounded up to even so its even-indexed half is a rule."""
    count = max(config.node_count, 32 * math.isqrt(n - 1) + 32)
    return count + count % 2


def _phase_on_circle(tau: float, x, q_sum, r, table: np.ndarray, tau_terms: bool) -> tuple:
    """Re G on |t| = r for X = x and Q = q_sum, Im G at given kept nodes,
    and |1 - tau^2 t^2|^2, for G(t) = q X t/(1 + tau t) - (q Q/2) tau
    t^2/(1 - tau^2 t^2), each fraction a scale times a real part over the
    grid.  x, q_sum and r are one circle's numbers, whose arrays are 1-D,
    or (rows, 1) columns of a block.  Without tau_terms (every rho = tau r
    is 0) the second fraction (0), the first's scale r/|1 + tau t|^2 (r)
    and |1 - tau^2 t^2|^2 (1; None) are not formed.
    """
    _, sin, _, one_plus_cos, sin_2, two_sin_sq = table
    q, rho = (1.0 - tau) * (1.0 + tau), tau * r
    e, c0 = 1.0 - rho, (1.0 - rho) * (1.0 + rho)
    qx, qq = q * x, 0.5 * q * q_sum
    a_scale, a_re = r, one_plus_cos - e
    branch_sq = None
    if tau_terms:
        a_scale = r / (e * e + 2.0 * rho * one_plus_cos)
        branch_sq = c0 * c0 + 2.0 * rho * rho * two_sin_sq
        b_scale, b_re = r * rho / branch_sq, c0 - two_sin_sq
    re_g = a_scale * (qx.real * a_re - qx.imag * sin)
    if tau_terms:
        re_g -= b_scale * (qq.real * b_re - qq.imag * sin_2)
    coefs = (qx.real, qx.imag, qq.real, qq.imag, r)

    def im_g(at_row: np.ndarray | None, flat: np.ndarray, sin: np.ndarray, sin_2: np.ndarray | None) -> np.ndarray:
        """Im G at kept nodes: flat indices into the grid, the rows at_row
        of a block (None: one circle), and the nodes' sin and sin 2 theta."""
        qx_re, qx_im, qq_re, qq_im, r = coefs if at_row is None else [c.take(at_row) for c in coefs]
        im = (a_scale.take(flat) if tau_terms else r) * (qx_re * sin + qx_im * a_re.take(flat))
        if tau_terms:
            im -= b_scale.take(flat) * (qq_re * sin_2 + qq_im * b_re.take(flat))
        return im

    return re_g, im_g, branch_sq


def _g_at_pole(tau: float, x: complex, q_sum: complex) -> complex:
    """G(1) = (1 - tau) X - tau Q/2, the phase at the pole t = 1."""
    return (1.0 - tau) * x - 0.5 * tau * q_sum


def _quadrature(params: ModelParams, circles: list, rows: list, table: np.ndarray, midpoints: bool) -> tuple:
    """Per-node log magnitude of the normalized integrand on |t| = r for the
    (X, Q, r) circles at the given rows, and its phases at kept nodes: the
    rows, nodes and flat (row, node) indices of a block's, or a lone row's
    nodes (at_row None, flat the nodes).  A lone row's numbers are floats,
    a block's (rows, 1) columns, which round as floats do (log r and
    (1 - r)^2 are per row).

    Node t contributes, before the 1/count weight, -e^{n (G(t) - log t -
    G(1))} (1-tau^2)^{d/2} t / ((t - 1) (1 - tau^2 t^2)^{d/2}), with t - 1 =
    -((1 - r) + r (1 - cos)) + i r sin, on the principal branch of (1 -
    tau^2 t^2)^{d/2}, whose real part stays positive for rho = tau r < 1.
    """
    tau, d, n = params.tau, params.d, params.n
    if len(rows) == 1:
        x, q_sum, r = circles[rows[0]]
        log_r, gap_sq, tau_terms = math.log(r), (1.0 - r) ** 2, tau * r > 0.0
    else:
        x, q_sum, r = (np.array(col)[:, None] for col in zip(*[circles[i] for i in rows]))
        radii = r[:, 0].tolist()
        log_r = np.array([math.log(v) for v in radii])[:, None]
        gap_sq = np.array([(1.0 - v) ** 2 for v in radii])[:, None]
        tau_terms = tau * r.max() > 0.0
    re_g, im_g, branch_sq = _phase_on_circle(tau, x, q_sum, r, table, tau_terms)
    f_pole, rho = _g_at_pole(tau, x, q_sum), tau * r
    log_mag = n * (re_g - (log_r + f_pole.real)) - 0.5 * np.log(gap_sq + 2.0 * r * table[2])  # |t - 1|^2
    if tau_terms:
        log_mag -= (0.25 * d) * np.log(branch_sq)
    log_mag += log_r + 0.5 * d * math.log1p(-tau * tau)
    parts = (f_pole.imag, r, r - 1.0, (1.0 - rho) * (1.0 + rho), rho * rho, -rho * rho)
    count = table.shape[1]
    step = (n - 1) % (2 * count)  # (n - 1) m modulo 2 count
    nodes = table[1], table[2], table[4], table[5]  # sin, 1 - cos, sin 2 theta, 2 sin^2 theta

    def phase_of(at_row: np.ndarray | None, at_node: np.ndarray, flat: np.ndarray) -> np.ndarray:
        f_im, r, r_less, c0, rho_sq, neg_rho_sq = parts if at_row is None else [c.take(at_row) for c in parts]
        sin, one_minus_cos = nodes[0][at_node], nodes[1][at_node]
        sin_2 = nodes[2][at_node] if tau_terms else None
        # the turn (n - 1) theta modulo 2 pi, in integers: theta = pi m / count, m = 2k (+ 1 at midpoints)
        m = (2 * step) * at_node
        if midpoints:
            m += step
        phi = n * (im_g(at_row, flat, sin, sin_2) - f_im) - (m % (2 * count)) * (math.pi / count)
        phi -= np.arctan2(r * sin, r_less - r * one_minus_cos)  # arg(t - 1)
        if tau_terms:
            phi -= (0.5 * d) * np.arctan2(neg_rho_sq * sin_2, c0 + rho_sq * nodes[3][at_node])  # arg(1 - tau^2 t^2)
        return np.exp(1j * (phi + math.pi))

    return log_mag, phase_of


def _phase_t(tau: float, q_sum: complex, p_sum: complex, t: complex) -> tuple[complex, complex, complex, complex]:
    """F(t) = G(t) - log t and its first three t-derivatives at one point,
    with G in partial fractions of P and Q, G(t) = (q/4) (P t/(1 + tau t)
    - Q t/(1 - tau t)) (X t at tau = 0, as X = (P - Q)/4), which leaves
    the saddle residuals |F'| at rounding.  F(tau t) of the s plane is
    this F(t), and its k-th derivative tau^-k times this one's."""
    c = 0.25 * (1.0 - tau) * (1.0 + tau)
    cp, cq = c * p_sum, c * q_sum
    up, dn = 1.0 / (1.0 + tau * t), 1.0 / (1.0 - tau * t)
    return (
        t * (cp * up - cq * dn) - cmath.log(t),
        cp * up * up - cq * dn * dn - 1.0 / t,
        -2.0 * tau * (cp * up**3 + cq * dn**3) + 1.0 / (t * t),
        6.0 * tau * tau * (cp * up**4 - cq * dn**4) - 2.0 / t**3,
    )


def _outer_root(z: complex, c: float) -> complex:
    """z + sqrt(z^2 - c) with the branch of modulus >= sqrt(c)."""
    r = cmath.sqrt(z * z - c)
    w1, w2 = z + r, z - r
    return w1 if abs(w1) >= abs(w2) else w2


def _hat_z(tau: float, x: complex, q_sum: complex, p_sum: complex) -> tuple[complex, complex]:
    """zhat_pm = sqrt(q/2) (sqrt P +- sqrt Q)/2, up to a swap and a common
    sign.  The larger comes from the sum of the roots, the other from
    zhat_+ zhat_- = q X / 2, so neither cancels when |X| is small against
    |P|."""
    q = (1.0 - tau) * (1.0 + tau)
    root_p, root_q = cmath.sqrt(p_sum), cmath.sqrt(q_sum)
    if abs(root_p + root_q) < abs(root_p - root_q):
        root_q = -root_q
    hat_p = 0.5 * math.sqrt(0.5 * q) * (root_p + root_q)
    return hat_p, 0.5 * q * x / hat_p if hat_p else hat_p


def _invariants_of_hat(tau: float, hat_p: complex, hat_m: complex) -> tuple[complex, complex, complex]:
    """(X, Q, P) = (2 zhat_+ zhat_-, 2 (zhat_+ - zhat_-)^2, 2 (zhat_+ + zhat_-)^2)/q, the inverse of _hat_z."""
    scale = 2.0 / ((1.0 - tau) * (1.0 + tau))
    return scale * hat_p * hat_m, scale * (hat_p - hat_m) ** 2, scale * (hat_p + hat_m) ** 2


def _outer_roots(tau: float, x: complex, q_sum: complex, p_sum: complex) -> tuple[complex, complex]:
    """w_pm, the roots of larger modulus of zhat_pm +- sqrt(zhat_pm^2 - 2 tau).
    Refuses focal inputs, zhat_pm^2 within 1e-10 tau of 2 tau, where the
    saddles have order two and the quadratic theory breaks down."""
    hat_p, hat_m = _hat_z(tau, x, q_sum, p_sum)
    if min(abs(hat_p * hat_p - 2.0 * tau), abs(hat_m * hat_m - 2.0 * tau)) < 1e-10 * tau:
        raise DegenerateSaddleError("saddle points coincide at a focal input")
    return _outer_root(hat_p, 2.0 * tau), _outer_root(hat_m, 2.0 * tau)


def _saddle_t(tau: float, x: complex, q_sum: complex, p_sum: complex) -> complex:
    """tau a = w_+ w_- / 2, the reciprocal of the dominant saddle in t."""
    w_p, w_m = _outer_roots(tau, x, q_sum, p_sum)
    return 0.5 * w_p * w_m


def _saddles_t(tau: float, x: complex, q_sum: complex, p_sum: complex) -> tuple[complex, complex, complex, complex]:
    """The four saddles of F at 0 < tau < 1: the dominant 1/(tau a), then
    tau a/tau^2, b/tau and 1/(tau b), with b = w_+/w_-."""
    w_p, w_m = _outer_roots(tau, x, q_sum, p_sum)
    ta, b = 0.5 * w_p * w_m, w_p / w_m
    return 1.0 / ta, ta / (tau * tau), b / tau, 1.0 / (tau * b)


def _circle(params: ModelParams, x: complex, q_sum: complex, p_sum: complex, config: ContourConfig, residue: bool):
    """The circle r of X, Q and P, whether its residue joins, and the radius
    refusals state; None where the residue alone is the value."""
    tau, n = params.tau, params.n
    if not (cmath.isfinite(x) and cmath.isfinite(q_sum) and cmath.isfinite(p_sum)):
        raise DomainError("pair invariants must be finite")
    if tau == 0.0 and x == 0:
        if not residue:
            raise UsageError("X = 0 at tau = 0 bypasses quadrature; no residue split exists")
        return None
    ta = abs(_saddle_t(tau, x, q_sum, p_sum))
    # tau a rounds to 0 at tau = 0 with P and Q underflowing while X does
    # not, and to inf (+ nan i) at subnormal tau with P far below X
    if not 0.0 < ta < math.inf:
        raise ContourError(f"the saddle is out of reach: |tau a| rounds to {ta:g}")
    cap = max(_RADIUS_CAP_TAU, 0.5 * (1.0 + tau))
    capped = tau >= cap * ta  # 1/|tau a| >= cap/tau, never at tau = 0
    # off the pole t = 1 on the side of the saddle circle (or cap), by a relative
    # offset/sqrt(n) at most 5% so small n stays near it: |r - 1| >= base nudge
    base, nudge = cap / tau if capped else 1.0 / ta, min(config.radius_offset / math.sqrt(n), 0.05)
    r = base * (1.0 + nudge if base > 1.0 else 1.0 - nudge)
    if capped:
        # never below the cap, which lies above the pole: past tau = 0.96
        # the clip alone would shrink the circle inside the pole it counts
        r = min(r, max(0.5 * (cap + 1.0) - 0.03, cap) / tau)
    elif tau > 0.0:  # in s, at most halfway from the saddle or pole circle to 1
        r = min(r, 0.5 * (max(tau / ta, tau) + 1.0) / tau)
    if not (1.0 - r) * (1.0 - r) < math.inf:  # a pair near the origin: the saddle lies past the node arithmetic
        r = _FAR_RADIUS
    # refusals state the radius in s = tau t, where the rules above are set
    shown = tau * r if tau > 0.0 else r
    if tau * r >= _MAX_RADIUS_TAU:
        raise ContourError(f"contour radius {shown:.6f} reaches the branch region at |s| = 1")
    if residue and tau > 0.0 and n <= _SETTLE_MAX_N:  # Cauchy: crossing the pole drops the residue
        settled = _SETTLE_FACTOR * config.tolerance ** (2.0 / _start_count(config, n)) / tau
        low = max(settled, r * math.exp(-_SETTLE_NATS / n))
        low = 1.0 + nudge if abs(low - 1.0) < nudge else low  # no nearer the pole than the nudge
        if low < r:
            r, shown = low, tau * low
    if abs(r - 1.0) < _MIN_POLE_GAP * r / math.sqrt(n):
        raise ContourError("pole lies within 1e-3 r/sqrt(n) of the contour of radius r")
    return r, r > 1.0 and residue, shown  # the clips and cap keep r on its side of the pole


def _integral_rows(
    params: ModelParams, x: list, q_sum: list, p_sum: list, config: ContourConfig, include_residue: bool
) -> list:
    """N of each row of the invariants, or the error its one-row call
    raises: each row sets up its circle, then the rows run the nested rule
    together in blocks of at most _BLOCK_NODES start nodes."""
    out: list = []
    todo = []  # (row, (X, Q, r), (r, residue, shown radius))
    for i, inv in enumerate(zip(x, q_sum, p_sum)):
        try:
            circle = _circle(params, *inv, config, include_residue)
        except EdgeDppError as exc:
            circle = exc
        out.append(LogMagnitudePhase(0.0, 1.0 + 0.0j) if circle is None else circle)
        if isinstance(circle, tuple):
            todo.append((i, (*inv[:2], circle[0]), circle))
    count = _start_count(config, params.n)
    size = max(1, _BLOCK_NODES // count)
    for start in range(0, len(todo), size):
        rows, nodes, circles = zip(*todo[start : start + size])
        node_values = functools.partial(_quadrature, params, nodes)
        for i, val in zip(rows, _nested_trapezoid(node_values, count, circles, config, params.n)):
            out[i] = val
    return out


def _checked(values: list) -> list:
    """The values of a call's rows; raises the error of its first failing row."""
    for val in values:
        if isinstance(val, EdgeDppError):
            raise val
    return values


def integral_I_tau(
    params: ModelParams, x: complex, q_sum: complex, p_sum: complex,
    config: ContourConfig = DEFAULT_CONTOUR, include_residue: bool = True,
) -> LogMagnitudePhase:
    """Pole-normalized contour value N = (1-tau^2)^{d/2} e^{-n G(1)} I of the
    pair invariants X = x, Q = q_sum and P = p_sum, for every 0 <= tau < 1.

    Trapezoid rule on the circle |t| = |tau a|^{-1} (1 +- offset/sqrt(n)),
    capped below the branch points, plus the residue +1 when the circle
    encloses the pole t = 1.  include_residue=False returns the bare
    circle integral, deep in the bulk exactly N - 1, representable in log
    form long after the difference underflows.  At tau = 0 and X = 0, N is
    the residue polynomial, exactly 1.  The row runs as a one-row block.
    """
    x, q_sum = complex(x), complex(q_sum)
    circle = _circle(params, x, q_sum, complex(p_sum), config, include_residue)
    if circle is None:
        return LogMagnitudePhase(0.0, 1.0 + 0.0j)
    node_values = functools.partial(_quadrature, params, [(x, q_sum, circle[0])])
    count = _start_count(config, params.n)
    return _checked(_nested_trapezoid(node_values, count, [circle], config, params.n))[0]


def _invariants(zp: np.ndarray, wp: np.ndarray) -> list:
    """X, Q and P of each validated row pair (z', w'), each summed
    coordinate by coordinate: three lists, or three complexes for one pair."""
    wc = wp.conj()
    return np.add.reduce([zp * wc, (zp - wc) ** 2, (zp + wc) ** 2], axis=-1).tolist()


def normalized_integral_many(
    params: ModelParams, zs, us, vs, config: ContourConfig = DEFAULT_CONTOUR, include_residue: bool = True
) -> list[LogMagnitudePhase]:
    """N at each row of the kernel arguments (sqrt(n) z + u, sqrt(n) z + v)
    of three (B, d) arrays: the pair z + u/sqrt(n), z + v/sqrt(n).  The rows
    run in blocks; the first failing row raises the error its one-row call
    raises.
    """
    z, u, v = _as_points(params, zs, us, vs)
    rn = math.sqrt(params.n)
    return _checked(_integral_rows(params, *_invariants(z + u / rn, z + v / rn), config, include_residue))


def _kernel_value(params: ModelParams, zb: list, wb: list, x: complex, q_sum: complex, big_n) -> LogMagnitudePhase:
    """pi^{-d} prod_k sqrt(omega(z_k) omega(w_k)) e^{n G(1)} N at the kernel arguments zb and wb."""
    log_w = 0.5 * sum(log_weight_omega(zk, params.tau) + log_weight_omega(wk, params.tau) for zk, wk in zip(zb, wb))
    log_pole = complex(log_w - params.d * math.log(math.pi)) + params.n * _g_at_pole(params.tau, x, q_sum)
    return big_n * LogMagnitudePhase.from_log(log_pole)


def kernel_via_contour_log_many(params: ModelParams, zs, ws, config: ContourConfig = DEFAULT_CONTOUR) -> list:
    """K_n(sqrt(n) z_b, sqrt(n) w_b) = pi^{-d} prod_k sqrt(omega(sqrt n z_k)
    omega(sqrt n w_k)) e^{n G(1)} N for every pair b of two (B, d) arrays
    of droplet-coordinate points: the route independent of the degree
    recurrence, mirroring kernel_exact_log_many.  The pairs run in blocks;
    the first failing pair raises the error its one-pair call raises.
    """
    z, w = _as_points(params, zs, ws)
    rn = math.sqrt(params.n)
    x, q_sum, p_sum = _invariants(z, w)
    values = _checked(_integral_rows(params, x, q_sum, p_sum, config, True))
    return [_kernel_value(params, *row) for row in zip((rn * z).tolist(), (rn * w).tolist(), x, q_sum, values)]


def kernel_via_contour_log(params: ModelParams, z, w, config: ContourConfig = DEFAULT_CONTOUR) -> LogMagnitudePhase:
    """kernel_via_contour_log_many for one pair: K_n(sqrt(n) z, sqrt(n) w),
    with N from integral_I_tau."""
    z, w = as_point(params, z), as_point(params, w)
    rn = math.sqrt(params.n)
    x, q_sum, p_sum = _invariants(z, w)
    big_n = integral_I_tau(params, x, q_sum, p_sum, config)
    return _kernel_value(params, [rn * c for c in z.tolist()], [rn * c for c in w.tolist()], x, q_sum, big_n)


def max_principle_check(
    params: ModelParams, x: complex, q_sum: complex, p_sum: complex, grid_size: int = 10_000
) -> float:
    """Largest violation of Re F(t) <= Re F(t*) on the saddle circle
    |t| = |t*|, t* = 1/(tau a) the dominant saddle of the invariants X, Q
    and P, over grid_size equally spaced nodes.

    Nonpositive (up to rounding) whenever the dominant-saddle inequality
    holds.  Re F = Re G(t) - log |t| on the circle comes from the node
    table, as the node magnitudes do; F(t*) from _phase_t.
    """
    if grid_size < 8:
        raise DomainError("grid_size must be >= 8")
    tau = params.tau
    saddle = 1.0 / _saddle_t(tau, x, q_sum, p_sum)
    r = abs(saddle)
    re_g = _phase_on_circle(tau, x, q_sum, r, _trapezoid_nodes(grid_size), tau * r > 0.0)[0]
    return float(re_g.max() - math.log(r) - _phase_t(tau, q_sum, p_sum, saddle)[0].real)
