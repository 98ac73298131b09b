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

The exact route evaluates a batch of point pairs of one (d, tau, n) cell
at once: kernel_exact_log_many, of which kernel_exact_log is the one-pair
case.  Per block of at most _BLOCK_ELEMENTS // (2 d n) pairs, the Hermite
recurrence is one loop over the degree with numpy operations across all
the block's sequences (2d per pair, d on the diagonal), the prefix sums
are one pass per 256-nat level and the final sums one row-wise
reduction.  A degree step costs six numpy calls, 5-8 us at any width on
a 2-core x86-64 machine against about 0.6 us per sequence for a scalar
loop, so a cell of B pairs pays about n such steps instead of 2dB scalar
sequences.  Only the d >= 3 convolution still runs pair by pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb, lgamma

import numpy as np

from .errors import ConsistencyError, DomainError, UsageError
from .special import LogMagnitudePhase, stable_sum_arrays, stable_sum_rows

__all__ = [
    "ModelParams",
    "kernel_exact",
    "kernel_exact_log",
    "kernel_exact_log_many",
    "kernel_tau0_closed",
    "rho1_density",
    "truncated_exp_series",
]

_NEG_INF = -math.inf
_SMALLEST_NORMAL = 2.0**-1022
# Width in nats of one rescaling level of _prefix_sums: far inside the double
# range even after summing n terms of a level.
_LEVEL_NATS = 256.0
# Elements per block of anti-diagonals in _convolve_truncated, and sequences
# x n per block of kernel_exact_log_many (about 2 MB of complex128 per
# temporary).
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
    if not np.isfinite(arr).all():  # complex isfinite: both parts finite
        raise DomainError("point coordinates must be finite")
    return arr


def log_weight_omega(zeta: complex, tau: float) -> float:
    zeta = complex(zeta)
    return -abs(zeta) ** 2 + tau * (zeta * zeta).real


def _phi_log_arrays(x, tau: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Hermite values phi_0..phi_{n-1} at every x, as (log |.|, phase) arrays.

    Normalized three-term recurrence:
        phi_{j+1} = (sqrt(1-tau^2) x phi_j - tau sqrt(j) phi_{j-1}) / sqrt(j+1),
    with phi_0 = 1 and phi_1 = sqrt(1-tau^2) x, run once over the whole
    array of arguments: a loop over the degree j with numpy operations
    across the arguments.  The result has shape x.shape + (n,), so a 0-d x
    gives (n,) arrays.  The loop works on the real and imaginary parts and
    rounds each product and sum as Python's complex arithmetic does (numpy's
    complex product may fuse them), so every iterate equals the one a
    scalar loop over a single argument gives.  It stores only the raw
    iterates and the log of the factor divided out of each argument's
    sequence so far; one vectorized _log_phase pass takes the logs and
    phases afterwards.

    An argument's iterates are rescaled at the step where
    max(|phi_{j-1}|, |phi_j|) leaves [1e-150, 1e150], so arbitrarily large
    degrees and arguments are safe; a subnormal pair (subnormal tau) is
    divided by its size, since exp(-log size) would overflow.  One step
    changes that size by at most a factor (|c x| + tau sqrt(j)) / sqrt(j+1)
    up and tau sqrt(j) / (|c x| + sqrt(j+1)) down (c = sqrt(1-tau^2)), so
    the sizes are computed only at the steps where these bounds, carried
    from the last computed sizes, let some argument leave the range.
    """
    x = np.asarray(x, dtype=complex)
    cx = math.sqrt(1.0 - tau * tau) * x.ravel()
    root = np.sqrt(np.arange(n + 1.0))
    down = (tau * root).tolist()  # tau sqrt(j)
    up = root[1:].tolist()  # sqrt(j + 1)
    reach = float(np.max(np.abs(cx), initial=0.0))
    # the 1e-12 margins cover the rounding of the iterates and of the bounds
    grow = (np.maximum(1.0, (reach + tau * root[:-1]) / root[1:]) * (1.0 + 1e-12)).tolist()
    fall = (np.minimum(1.0, tau * root[:-1] / (reach + root[1:])) * (1.0 - 1e-12)).tolist()
    raw = np.empty((n, cx.size), dtype=complex)
    raw[0] = 1.0
    parts = raw.view(float).reshape(n, cx.size, 2)  # (re, im) of every iterate
    c_re = np.stack([cx.real, cx.real], axis=1)
    c_im = np.stack([-cx.imag, cx.imag], axis=1)
    cross = np.empty((cx.size, 2))
    lag = np.zeros((cx.size, 2))  # phi_{j-2} where it differs from the stored one
    scales = np.empty((n, cx.size))
    scale = np.zeros(cx.size)  # running log of the factor divided out
    stored = 0  # rows below this one have their scale stored
    top = bottom = 1.0  # bounds on the largest and the smallest nonzero size
    for j in range(1, n):
        nxt, cur = parts[j], parts[j - 1]
        np.multiply(c_re, cur, out=nxt)
        np.multiply(c_im, cur[:, ::-1], out=cross)
        nxt += cross  # c x phi_{j-1}
        np.multiply(down[j - 1], parts[j - 2] if lag is None else lag, out=cross)
        nxt -= cross
        nxt /= up[j - 1]
        lag = None
        top *= grow[j - 1]
        bottom *= fall[j - 1]
        if top <= 1e150 and bottom >= 1e-150:
            continue
        size = np.maximum(np.hypot(nxt[:, 0], nxt[:, 1]), np.hypot(cur[:, 0], cur[:, 1]))
        out = np.flatnonzero((size > 1e150) | ((size > 0.0) & (size < 1e-150))).tolist()
        if out:
            # the stored phi_{j-1} keeps its scale; the recurrence goes on
            # from the rescaled copy
            scales[stored:j] = scale
            stored = j
            lag = cur.copy()
            for r in out:
                m = float(size[r])
                shift = math.log(m)
                a, b = complex(*lag[r]), complex(*nxt[r])
                if m < _SMALLEST_NORMAL:
                    a, b = a / m, b / m
                else:
                    factor = math.exp(-shift)
                    a, b = a * factor, b * factor
                lag[r], nxt[r] = (a.real, a.imag), (b.real, b.imag)
                scale[r] += shift
                size[r] = max(abs(a), abs(b))
        live = size[size > 0.0]
        top, bottom = (float(live.max()), float(live.min())) if live.size else (1.0, 1.0)
    scales[stored:] = scale
    logs, phases = _log_phase(raw.T, scales.T)
    return logs.reshape(x.shape + (n,)), phases.reshape(x.shape + (n,))


def _monomial_log_arrays(prod, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree sequences (z w~)^j / j! at tau = 0 for every prod, as (log |.|, phase)
    arrays of shape prod.shape + (n,)."""
    prod = np.asarray(prod, dtype=complex)
    flat = prod.ravel().tolist()
    log_mag = np.array([math.log(abs(p)) if p else _NEG_INF for p in flat])[:, None]
    ang = np.array([cmath.phase(p) for p in flat])[:, None]
    j = np.arange(n, dtype=float)
    lg = np.array([lgamma(k + 1.0) for k in range(n)])
    with np.errstate(invalid="ignore"):
        logs = j * log_mag - lg
    logs[:, 0] = np.where(log_mag[:, 0] == _NEG_INF, 0.0, logs[:, 0])  # 0^0 = 1
    phases = np.exp(1j * (j * ang))
    return logs.reshape(prod.shape + (n,)), phases.reshape(prod.shape + (n,))


def _coordinate_sequences(
    params: ModelParams, z: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted degree sequences T_k[j] of every coordinate pair (z[b, k], w[b, k]).

    Log/phase arrays of shape (B, d, n).  Each includes the per-coordinate
    prefactor sqrt(1-tau^2)/pi (1/pi at tau=0) and the weight factor
    sqrt(omega(z_k) omega(w_k)), so the kernel of pair b is the sum of
    prod_k T_k[j_k] over |j| < n.  One recurrence call serves the whole
    batch; a coordinate with z_k = w_k runs it once, not twice.  The
    per-coordinate scalars are computed with Python's complex arithmetic,
    as a single pair's evaluation rounds them.
    """
    tau, n = params.tau, params.n
    pairs = list(zip(z.ravel().tolist(), w.ravel().tolist()))
    log_w = np.array(
        [0.5 * (log_weight_omega(zk, tau) + log_weight_omega(wk, tau)) for zk, wk in pairs]
    ).reshape(z.shape)
    if tau == 0.0:
        prods = np.array([zk * wk.conjugate() for zk, wk in pairs]).reshape(z.shape)
        logs, phases = _monomial_log_arrays(prods, n)
        pref = log_w - math.log(math.pi)
    else:
        off = z != w
        lx, px = _phi_log_arrays(np.concatenate([z.ravel(), w[off]]), tau, n)
        at_z = np.arange(z.size).reshape(z.shape)
        at_w = at_z.copy()
        at_w[off] = z.size + np.arange(np.count_nonzero(off))
        logs = lx[at_z] + lx[at_w]
        phases = px[at_z] * np.conj(px[at_w])
        pref = log_w + 0.5 * math.log(1.0 - tau * tau) - math.log(math.pi)
    return logs + pref[..., None], phases


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
    """Prefix sums B_m = sum_{j <= m} b_j along the last axis of (log, phase) arrays, same form.

    Each row's running maximum of the log magnitudes is cut into levels
    _LEVEL_NATS wide.  Within one level the terms are scaled by the level's
    largest running maximum, so they lie in [0, 1] and every B_m keeps its
    full relative accuracy whatever the dynamic range; the carry between
    levels is rescaled once.  The sums are compensated: cumsum plus the
    exact rounding error of each addition (Ogita-Rump-Oishi Sum2 in prefix
    form).  The k-th level of every row is summed in one pass over the
    columns that level spans in any row, so the loop runs once per level,
    not once per row and level.
    """
    shape = np.shape(lb)
    lb = np.asarray(lb, dtype=float).reshape(-1, shape[-1])
    pb = np.asarray(pb, dtype=complex).reshape(lb.shape)
    run_max = np.maximum.accumulate(lb, axis=1)
    level = np.floor(run_max / _LEVEL_NATS)
    starts = np.empty(lb.shape, dtype=bool)
    starts[:, 0] = run_max[:, 0] > _NEG_INF  # leading exact zeros belong to no level
    starts[:, 1:] = level[:, 1:] != level[:, :-1]
    rank = np.cumsum(starts, axis=1) - 1  # level count before each entry of its row
    row_of, first = np.nonzero(starts)  # every level, row by row
    last = np.append(first[1:], 0)
    last[np.append(row_of[1:] != row_of[:-1], True)] = lb.shape[1]  # one past each level's end
    level_rank = rank[row_of, first]
    logs = np.full(lb.shape, _NEG_INF)
    phases = np.ones(lb.shape, dtype=complex)
    carry = np.zeros(lb.shape[0], dtype=complex)
    carry_shift = np.full(lb.shape[0], _NEG_INF)
    for k in range(int(level_rank.max(initial=-1)) + 1):
        this = level_rank == k
        rows, s, e = row_of[this], first[this], last[this]
        cols = slice(int(s.min()), int(e.max()))
        mine = rank[rows, cols] == k
        shift = run_max[rows, e - 1]
        x = np.empty((rows.size, mine.shape[1] + 1), dtype=complex)
        x[:, 0] = carry[rows] * np.exp(carry_shift[rows] - shift)
        x[:, 1:] = pb[rows, cols] * np.exp(np.where(mine, lb[rows, cols] - shift[:, None], _NEG_INF))
        partial = np.cumsum(x, axis=1)
        a, t, b = partial[:, :-1], partial[:, 1:], x[:, 1:]
        bb = t - a
        sums = t + np.cumsum((a - (t - bb)) + (b - bb), axis=1)
        lg, ph = _log_phase(sums, shift[:, None])
        logs[rows, cols] = np.where(mine, lg, logs[rows, cols])
        phases[rows, cols] = np.where(mine, ph, phases[rows, cols])
        carry[rows] = sums[:, -1]  # the window adds only zeros after each level
        carry_shift[rows] = shift
    return logs.reshape(shape), phases.reshape(shape)


def _as_points(params: ModelParams, pts) -> np.ndarray:
    """Validate and convert a batch of kernel arguments to a (B, d) complex array."""
    arr = np.asarray(pts, dtype=complex)
    if arr.ndim != 2 or arr.shape[1] != params.d:
        raise UsageError(f"points must have shape (B, {params.d}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("point coordinates must be finite")
    return arr


def kernel_exact_log_many(params: ModelParams, zs, ws) -> list[LogMagnitudePhase]:
    """K_n(z_b, w_b) for every pair b of two (B, d) arrays, in log/phase form.

    K = sum_{|j| < n} prod_k T_k[j_k].  The first d - 1 coordinates are
    convolved with degree truncation into c; the last enters only through
    its prefix sums B, K = sum_i c_i B_{n-1-i}.  d = 2 needs no convolution.
    The recurrence, the prefix sums and the final sums each run once over a
    block of pairs; only the d >= 3 convolution runs pair by pair.  A block
    holds at most _BLOCK_ELEMENTS // (2 d n) pairs, so none of its arrays
    of sequences (2d per pair at most) exceeds _BLOCK_ELEMENTS entries.
    Returns one value per pair, in the input order.
    """
    z = _as_points(params, zs)
    w = _as_points(params, ws)
    if z.shape != w.shape:
        raise UsageError(f"zs and ws must have the same shape, got {z.shape} and {w.shape}")
    n = params.n
    rows = max(1, _BLOCK_ELEMENTS // (2 * params.d * n))
    out = []
    for b0 in range(0, z.shape[0], rows):
        logs, phases = _coordinate_sequences(params, z[b0 : b0 + rows], w[b0 : b0 + rows])
        if params.d == 1:
            out.extend(stable_sum_rows(logs[:, 0], phases[:, 0]))
            continue
        lb, pb = _prefix_sums(logs[:, -1], phases[:, -1])
        lc, pc = logs[:, 0], phases[:, 0]
        if params.d > 2:
            conv = []
            for seq_logs, seq_phases in zip(logs, phases):
                c = seq_logs[0], seq_phases[0]
                for lk, pk in zip(seq_logs[1:-1], seq_phases[1:-1]):
                    c = _convolve_truncated(*c, lk, pk, n)
                conv.append(c)
            lc, pc = np.array([c[0] for c in conv]), np.array([c[1] for c in conv])
        out.extend(stable_sum_rows(lc + lb[:, ::-1], pc * pb[:, ::-1]))
    return out


def kernel_exact_log(params: ModelParams, z, w) -> LogMagnitudePhase:
    """K_n(z, w) in log/phase form: kernel_exact_log_many for one pair."""
    return kernel_exact_log_many(params, as_point(params, z)[None], as_point(params, w)[None])[0]


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


def rho1_density(params: ModelParams, z):
    """Average one-point density K_n(z, z) / C(n+d-1, d), total mass one.

    z is one point (d coordinates), or a (B, d) array of points, whose B
    densities come back as an array from one batched kernel evaluation.
    """
    batch = np.ndim(z) == 2
    pts = z if batch else as_point(params, z)[None]
    rhos = [_density(params, k.value) for k in kernel_exact_log_many(params, pts, pts)]
    return np.array(rhos) if batch else rhos[0]


def _density(params: ModelParams, val: complex) -> float:
    """K_n(z, z) / C(n+d-1, d) from the diagonal kernel value, checked to be real."""
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ConsistencyError(f"diagonal kernel value not real: {val!r}")
    rho = val.real / params.point_count
    return max(rho, 0.0) if rho > -1e-12 * scale else rho
