"""Exact evaluation of the finite-n correlation kernel on C^d.

The kernel of the elliptic Ginibre-type process with non-Hermiticity
0 < tau < 1 is a sum over multi-indices j with total degree |j| < n of
per-coordinate factors

    sqrt(omega(z_k) omega(w_k)) phi_{j_k}(z_k) conj(phi_{j_k}(w_k)),

where omega(z) = exp(-|z|^2 + tau Re z^2) and phi_j is the weighted
Hermite polynomial sqrt((tau/2)^j / j!) H_j(sqrt((1-tau^2)/(2 tau)) z),
all multiplied by (sqrt(1-tau^2)/pi)^d.  At tau = 0 the same structure
holds with phi_j(z) = z^j / sqrt(j!) and omega(z) = exp(-|z|^2), and the
whole sum collapses to a truncated exponential of the dot product.

Evaluation starts from per-coordinate degree sequences T_k[j], j < n.
The sum needs only sum_{m<n} c_m of their convolution c, so the last
coordinate enters through its prefix sums B: K = sum_i c_i B_{n-1-i},
with c the degree-truncated convolution of the first d - 1 sequences.
That costs O(n) time and memory for d <= 2 and O((d - 2) n^2) time with
O(block * n) memory for d >= 3, instead of the O(n^d) multi-index
enumeration.  Every factor is carried as a (log magnitude, phase) pair
because individual terms reach exp(O(n)) while the kernel itself stays of
order pi^{-d} near the droplet edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb, lgamma
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, UsageError
from .special import LogMagnitudePhase, stable_sum_arrays

__all__ = [
    "ModelParams",
    "weight_omega",
    "kernel_exact",
    "kernel_exact_log",
    "kernel_tau0_closed",
    "rho1_density",
    "correlation_k",
    "truncated_exp_series",
]

_NEG_INF = -math.inf
_SMALLEST_NORMAL = 2.0**-1022
# Width in nats of one rescaling level of _prefix_sums: far inside the double
# range even after summing n terms of a level.
_LEVEL_NATS = 256.0
# Elements per block of anti-diagonals in _convolve_truncated (about 2 MB of
# complex128 per temporary).
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class ModelParams:
    """Dimension d, non-Hermiticity tau in [0, 1), total-degree cutoff n."""

    d: int
    tau: float
    n: int

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 1:
            raise DomainError(f"d must be a positive integer, got {self.d}")
        if not (0.0 <= self.tau < 1.0) or not math.isfinite(self.tau):
            raise DomainError(f"tau must lie in [0, 1), got {self.tau}")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "n", int(self.n))

    @property
    def point_count(self) -> int:
        """Number of points of the process: C(n+d-1, d)."""
        return comb(self.n + self.d - 1, self.d)


def as_point(params: ModelParams, coords) -> np.ndarray:
    """Validate and convert kernel arguments to a length-d complex vector."""
    arr = np.atleast_1d(np.asarray(coords, dtype=complex))
    if arr.ndim != 1 or arr.size != params.d:
        raise UsageError(f"point must have {params.d} coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DomainError("point coordinates must be finite")
    return arr


def weight_omega(zeta: complex, tau: float) -> float:
    """Planar weight omega(zeta) = exp(-|zeta|^2 + tau Re zeta^2)."""
    if not (0.0 <= tau < 1.0):
        raise DomainError(f"tau must lie in [0, 1), got {tau}")
    zeta = complex(zeta)
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        raise DomainError("zeta must be finite")
    return math.exp(log_weight_omega(zeta, tau))


def log_weight_omega(zeta: complex, tau: float) -> float:
    zeta = complex(zeta)
    return -abs(zeta) ** 2 + tau * (zeta * zeta).real


def _phi_log_arrays(x: complex, tau: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Hermite values phi_0..phi_{n-1} at x as (log |.|, phase) arrays.

    Normalized three-term recurrence:
        phi_{j+1} = (sqrt(1-tau^2) x phi_j - tau sqrt(j) phi_{j-1}) / sqrt(j+1),
    with phi_0 = 1 and phi_1 = sqrt(1-tau^2) x.  The iterates are rescaled
    whenever they leave [1e-150, 1e150], so arbitrarily large degrees and
    arguments are safe.  The loop stores only each raw iterate and the log
    of the factor divided out so far; the logs and phases of all n values
    come from one vectorized _log_phase pass afterwards.
    """
    cx = math.sqrt(1.0 - tau * tau) * x
    root = np.sqrt(np.arange(n + 1.0))
    down = (tau * root).tolist()  # tau sqrt(j)
    up = root[1:].tolist()  # sqrt(j + 1)
    raw = np.empty(n, dtype=complex)
    scales = np.empty(n)
    prev = 0.0 + 0.0j
    cur = 1.0 + 0.0j
    scale = 0.0  # running log of the factor divided out
    for j in range(n):
        raw[j] = cur
        scales[j] = scale
        nxt = (cx * cur - down[j] * prev) / up[j]
        prev, cur = cur, nxt
        m = max(abs(cur), abs(prev))
        if m > 1e150 or (0.0 < m < 1e-150):
            shift = math.log(m)
            if m < _SMALLEST_NORMAL:
                # a subnormal iterate (subnormal tau): exp(-shift) would overflow
                prev /= m
                cur /= m
            else:
                factor = math.exp(-shift)
                prev *= factor
                cur *= factor
            scale += shift
    return _log_phase(raw, scales)


def _monomial_log_arrays(prod: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree sequence (z w~)^j / j! at tau = 0, as (log |.|, phase) arrays."""
    logs = np.full(n, _NEG_INF)
    phases = np.ones(n, dtype=complex)
    j = np.arange(n, dtype=float)
    if prod == 0:
        logs[0] = 0.0
        return logs, phases
    mag = abs(prod)
    ang = cmath.phase(prod)
    lg = np.array([lgamma(k + 1.0) for k in range(n)])
    logs = j * math.log(mag) - lg
    phases = np.exp(1j * (j * ang))
    return logs, phases


def _coordinate_sequence(
    params: ModelParams, zk: complex, wk: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted degree sequence T_k[j] for one coordinate pair, log/phase form.

    Includes the per-coordinate prefactor sqrt(1-tau^2)/pi (1/pi at tau=0)
    and the weight factor sqrt(omega(z_k) omega(w_k)), so the kernel is the
    sum of prod_k T_k[j_k] over |j| < n.  On the diagonal z_k = w_k the
    Hermite recurrence runs once.
    """
    tau, n = params.tau, params.n
    log_w = 0.5 * (log_weight_omega(zk, tau) + log_weight_omega(wk, tau))
    if tau == 0.0:
        logs, phases = _monomial_log_arrays(zk * wk.conjugate(), n)
        pref = log_w - math.log(math.pi)
    else:
        lz, pz = _phi_log_arrays(zk, tau, n)
        lw, pw = (lz, pz) if wk == zk else _phi_log_arrays(wk, tau, n)
        logs = lz + lw
        phases = pz * np.conj(pw)
        pref = log_w + 0.5 * math.log(1.0 - tau * tau) - math.log(math.pi)
    return logs + pref, phases


def _log_phase(values: np.ndarray, shift: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(shift + log |v|, v / |v|) for complex v, with (-inf, 1) for exact zeros.

    shift must be finite, so that shift + log 0 is -inf.
    """
    mag = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = shift + np.log(mag)
        phases = values / mag
    phases[mag == 0.0] = 1.0
    return logs, phases


def _convolve_truncated(
    la: np.ndarray, pa: np.ndarray, lb: np.ndarray, pb: np.ndarray, nmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-truncated convolution of two (log, phase) sequences.

    Computes c_m = sum_{i+j=m} a_i b_j for m < nmax.  Each anti-diagonal m
    gets its own max-shift, which keeps the full exp(O(n)) dynamic range
    intact.  Blocks of anti-diagonals are evaluated at once from a sliding
    window over b, in O(block * n) memory.
    """
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    pa = np.asarray(pa, dtype=complex)
    pb = np.asarray(pb, dtype=complex)
    ka, kb = la.size, lb.size
    m_count = min(nmax, ka + kb - 1)
    width = min(ka, m_count)  # only a_i with i < m_count reach a kept degree
    # ext[t] = b_{t - width + 1}, zero outside 0 <= t - width + 1 < kb, so that
    # c_m = sum_t a_{width-1-t} ext[m + t] over one window of ext.
    kept = min(kb, m_count)
    ext_log = np.concatenate(
        [np.full(width - 1, _NEG_INF), lb[:kept], np.full(m_count - kept, _NEG_INF)]
    )
    ext_phase = np.concatenate(
        [np.ones(width - 1, dtype=complex), pb[:kept], np.ones(m_count - kept, dtype=complex)]
    )
    win_log = np.lib.stride_tricks.sliding_window_view(ext_log, width)
    win_phase = np.lib.stride_tricks.sliding_window_view(ext_phase, width)
    rev_log = la[:width][::-1]
    rev_phase = pa[:width][::-1]
    logs = np.empty(m_count)
    phases = np.empty(m_count, dtype=complex)
    rows = max(1, _BLOCK_ELEMENTS // width)
    for m0 in range(0, m_count, rows):
        m1 = min(m0 + rows, m_count)
        # degrees m0..m1-1 need i <= m1 - 1 and i >= m0 - kb + 1 (t = width-1-i)
        t0 = max(0, width - m1)
        t1 = min(width, width + kb - 1 - m0)
        block_log = rev_log[t0:t1] + win_log[m0:m1, t0:t1]
        shift = np.max(block_log, axis=1)
        shift[shift == _NEG_INF] = 0.0  # an all-zero anti-diagonal sums to zero
        terms = np.exp(block_log - shift[:, None]) * rev_phase[t0:t1] * win_phase[m0:m1, t0:t1]
        logs[m0:m1], phases[m0:m1] = _log_phase(np.sum(terms, axis=1), shift)
    return logs, phases


def _prefix_sums(lb: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums B_m = sum_{j <= m} b_j of a (log, phase) sequence, same form.

    The running maximum of the log magnitudes is cut into levels
    _LEVEL_NATS wide.  Within one level the terms are scaled by the level's
    largest running maximum, so they lie in [0, 1] and every B_m keeps its
    full relative accuracy whatever the dynamic range; the carry between
    levels is rescaled once.  The sums are compensated: cumsum plus the
    exact rounding error of each addition (Ogita-Rump-Oishi Sum2 in prefix
    form).
    """
    run_max = np.maximum.accumulate(lb)
    level = np.floor(run_max / _LEVEL_NATS)
    cuts = (np.flatnonzero(level[1:] != level[:-1]) + 1).tolist()
    logs = np.full(lb.size, _NEG_INF)
    phases = np.ones(lb.size, dtype=complex)
    carry, carry_shift = 0.0 + 0.0j, _NEG_INF
    for s, e in zip([0] + cuts, cuts + [lb.size]):
        shift = float(run_max[e - 1])
        if shift == _NEG_INF:
            continue  # leading exact zeros
        x = np.empty(e - s + 1, dtype=complex)
        x[0] = carry * math.exp(carry_shift - shift)
        x[1:] = pb[s:e] * np.exp(lb[s:e] - shift)
        partial = np.cumsum(x)
        a, t, b = partial[:-1], partial[1:], x[1:]
        bb = t - a
        sums = t + np.cumsum((a - (t - bb)) + (b - bb))
        logs[s:e], phases[s:e] = _log_phase(sums, shift)
        carry, carry_shift = sums[-1], shift
    return logs, phases


def kernel_exact_log(params: ModelParams, z, w) -> LogMagnitudePhase:
    """K_n(z, w) from the per-coordinate degree sequences, in log/phase form.

    K = sum_{|j| < n} prod_k T_k[j_k].  The first d - 1 coordinates are
    convolved with degree truncation into c; the last enters only through
    its prefix sums B, K = sum_i c_i B_{n-1-i}.  d = 2 needs no convolution.
    """
    z = as_point(params, z)
    w = as_point(params, w)
    n = params.n
    seqs = [_coordinate_sequence(params, complex(zk), complex(wk)) for zk, wk in zip(z, w)]
    logs, phases = seqs[0]
    if params.d == 1:
        return stable_sum_arrays(logs, phases)
    for lk, pk in seqs[1:-1]:
        logs, phases = _convolve_truncated(logs, phases, lk, pk, n)
    lb, pb = _prefix_sums(*seqs[-1])
    return stable_sum_arrays(logs + lb[::-1], phases * pb[::-1])


def kernel_exact(params: ModelParams, z, w) -> complex:
    """Correlation kernel K_n(z, w), summed over all |j| < n.

    Arguments are the raw (unscaled) points; any sqrt(n) scaling is the
    caller's choice.  Internally overflow safe for arguments of size
    O(sqrt(n)); the returned complex may still overflow for points far
    outside the droplet, where K_n is genuinely astronomical or zero.
    """
    return kernel_exact_log(params, z, w).value


def truncated_exp_series(x: complex, nterms: int) -> LogMagnitudePhase:
    """sum_{j < nterms} x^j / j! in log/phase form.

    For |x| < nterms it is e^x minus the tail sum_{j >= nterms} x^j / j!.
    The tail is x^nterms / nterms!, a rescaled running product, times a
    series whose terms shrink by |x| / (j + 1) < 1.  The log-domain sum of
    the terms instead rounds each log j log|x| - lgamma(j + 1), which costs
    about eps times its size, and is kept only for |x| >= nterms, where the
    terms grow up to the last one.
    """
    if nterms < 1:
        raise DomainError("nterms must be >= 1")
    x = complex(x)
    size = abs(x)
    if size >= nterms:
        logs, phases = _monomial_log_arrays(x, nterms)
        return stable_sum_arrays(logs, phases)
    lead, lead_log = 1.0 + 0.0j, 0.0  # x^nterms / nterms! = lead e^lead_log
    for j in range(1, nterms + 1):
        lead = lead * x / j
        mag = abs(lead)
        if mag > 1e150 or 0.0 < mag < 1e-150:
            lead /= mag
            lead_log += math.log(mag)
    terms = [1.0 + 0.0j]  # sum_{k >= 0} prod_{i=1..k} x / (nterms + i)
    term, partial, k = 1.0 + 0.0j, 1.0 + 0.0j, nterms
    # the terms from t_k on add up to at most |t_k| (k + 1) / (k + 1 - |x|)
    while abs(term) * (k + 1) > 2.0**-56 * abs(partial) * (k + 1 - size):
        k += 1
        term = term * x / k
        terms.append(term)
        partial += term
    ratio = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    tail = LogMagnitudePhase(lead_log, 1.0 + 0.0j).scaled(lead * ratio)
    exp_x = LogMagnitudePhase.from_log(x)
    return stable_sum_arrays(
        np.array([exp_x.log_mag, tail.log_mag]), np.array([exp_x.phase, -tail.phase])
    )


def kernel_tau0_closed(params: ModelParams, z, w) -> complex:
    """Closed form at tau = 0: pi^{-d} exp(-(|z|^2+|w|^2)/2) sum_{j<n} (z.w)^j / j!."""
    return kernel_tau0_closed_log(params, z, w).value


def kernel_tau0_closed_log(params: ModelParams, z, w) -> LogMagnitudePhase:
    if params.tau != 0.0:
        raise UsageError("kernel_tau0_closed requires tau = 0")
    z = as_point(params, z)
    w = as_point(params, w)
    zw = complex(np.sum(z * np.conj(w)))
    series = truncated_exp_series(zw, params.n)
    log_pref = -0.5 * (np.sum(np.abs(z) ** 2) + np.sum(np.abs(w) ** 2)) - params.d * math.log(
        math.pi
    )
    return LogMagnitudePhase(series.log_mag + float(log_pref), series.phase)


def rho1_density(params: ModelParams, z) -> float:
    """Average one-point density K_n(z, z) / C(n+d-1, d), total mass one."""
    k = kernel_exact_log(params, z, z)
    val = k.value
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ConsistencyError(f"diagonal kernel value not real: {val!r}")
    rho = val.real / params.point_count
    return max(rho, 0.0) if rho > -1e-12 * scale else rho


def correlation_k(params: ModelParams, pts: Sequence) -> float:
    """k-point correlation det(K_n(z_i, z_j))_{i,j <= k}, for k <= 6.

    Returned as the unnormalized determinant (an intensity, not a
    probability density); any point-count normalization is the caller's
    choice.
    """
    points = [as_point(params, p) for p in pts]
    k = len(points)
    if not 1 <= k <= 6:
        raise UsageError(f"correlation_k supports 1 <= k <= 6 points, got {k}")
    mat = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            mat[i, j] = kernel_exact(params, points[i], points[j])
    det = complex(np.linalg.det(mat))
    scale = max(abs(det), 1.0)
    if abs(det.imag) > 1e-10 * scale:
        raise ConsistencyError(f"correlation determinant not real: {det!r}")
    return det.real
