"""Exact evaluation of the finite-n correlation kernel on C^d.

The kernel of the elliptic Ginibre-type process with non-Hermiticity
0 <= tau < 1 is a sum over multi-indices j with total degree |j| < n of
per-coordinate factors sqrt(omega(z_k) omega(w_k)) phi_{j_k}(z_k)
conj(phi_{j_k}(w_k)), where omega(z) = exp(-|z|^2 + tau Re z^2) and phi_j
is the weighted Hermite polynomial sqrt((tau/2)^j / j!) H_j(sqrt((1-tau^2)/
(2 tau)) z) (z^j / sqrt(j!) at tau = 0), times (sqrt(1-tau^2)/pi)^d.  The
weight depends on z only through |z|^2 and sum_k z_k^2, so the kernel sees
a pair only through its weights and the invariants

    X = sum_k z_k conj(w_k),    S = sum_k z_k^2 + sum_k conj(w_k)^2.

Mehler's formula (DLMF 18.18.28), one factor per coordinate, gives the
generating function of the degree-m parts h_m of the sum; with q = 1 - tau^2,

    sum_m h_m s^m = (1 - tau^2 s^2)^(-d/2)
                    exp((q X s - (q tau / 2) S s^2) / (1 - tau^2 s^2)),

whose rational logarithmic derivative gives the five-term recurrence

    (m+1) h_{m+1} = q X h_m + ((2m - 2 + d) tau^2 - q tau S) h_{m-1}
                    + q tau^2 X h_{m-2} - (m - 3 + d) tau^4 h_{m-3},
    h_0 = 1,  h_{-1} = h_{-2} = h_{-3} = 0,

and K_n(z, w) = (sqrt(q)/pi)^d sqrt(omega(z) omega(w)) sum_{m<n} h_m; d
enters only as a number.  The wanted solution, singular at s = +-1/tau,
dominates the others, so forward evaluation is stable (Gautschi, SIAM
Review 9, 1967).  Near tau = 1 the roots +-tau are double, and a rounding
of h_m against h_{m-2} grows by about m - k from step k on.  The loop
carries u_m = h_m - tau^2 h_{m-2}, the coefficients of U = (1 - tau^2
s^2) G, and takes each step as the small coefficient w_{m+1} = u_{m+1} -
tau^2 u_{m-1} of W = (1 - tau^2 s^2)^2 G, from the derivative of W,

    (m+1) w_{m+1} = (d - 4) tau^2 u_{m-1}
                    + q X (h_m + tau^2 h_{m-2}) - q tau S h_{m-1},

added up twice, u_{m+1} = w_{m+1} + tau^2 u_{m-1} and h_{m+1} = u_{m+1} +
tau^2 h_{m-1}, as Reinsch's modification of Clenshaw's recurrence does:
the double root lies exactly in the additions, and a rounding of the
small w moves the result by about eps relative.  Against 40-digit mpmath
the error stayed within 64 eps of the terms' L1 norm plus one rounding of
the weight's log for tau up to 0.999999 and n up to 4096, where the
five-term form reached 7e4 eps.  At tau = 0 (tau^2 = q tau S = 0) every
other term of a step is +-0: the loop runs the truncated exponential
h_{m+1} = q X h_m / (m + 1) alone, to the same floats, and tau -> 0 is
continuous down to subnormal tau.

Each pair runs the recurrence as a scalar Python loop, in float arithmetic
when X and S are real (every diagonal pair; the same bits as the complex
loop) and in complex arithmetic otherwise.  Past 1e150 the iterates are
divided by a power of two, exactly, and the scale kept as a binary
exponent.  numpy's pairwise sum adds the terms per component, flushed at
each rescale, within about log2(n) eps of their L1 norm (Higham, SIAM J.
Sci. Comput. 14, 1993); math.fsum combines the log parts, so the weight's
log costs one rounding.  A step takes about 0.38 us in floats and 0.63 us
in complex at tau > 0, and 0.2 and 0.3 us at tau = 0, on a 2-core x86-64
machine: 1.5 to 2.6 ms per pair at n = 4096 in any d.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb, lgamma

import numpy as np

from .errors import ConsistencyError, DomainError, UsageError
from .special import LogMagnitudePhase, stable_sum_arrays

__all__ = [
    "ModelParams",
    "kernel_exact",
    "kernel_exact_log",
    "kernel_exact_log_many",
    "kernel_tau0_closed_log",
    "rho1_density",
    "truncated_exp_series",
]

_LOG2 = math.log(2.0)


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


def _pairwise_sum(terms: list):
    """numpy's pairwise sum of float or complex terms, per component, so
    real terms give the same bits in either type."""
    a = np.array(terms)
    return float(a.sum()) if a.dtype.kind == "f" else complex(a.real.sum(), a.imag.sum())


def _degree_sum(qx, qts, t2: float, d4: float, n: int):
    """sum_{m<n} h_m as (log scale, total), the sum being exp(log scale) *
    total, for qx = q X, qts = q tau S, t2 = tau^2 and d4 = d - 4, in the
    module docstring's difference form and in the arithmetic of qx: float or
    complex.  Both additions apply one rounded tau^2, so the double root
    stays exactly double; no tau^4 is formed.
    """
    h0, h1, h2, u0, u1 = (type(qx)(v) for v in (1, 0, 0, 1, 0))
    terms = [h0]
    exponent = 0  # the iterates and terms are 2^-exponent times the true ones
    plain = t2 == 0.0 and qts == 0  # tau = 0: every other term of a step is +-0
    for k in range(1, n):
        if plain:
            h0 = qx * h0 / k
        else:
            tu = t2 * u1
            u0, u1 = (d4 * tu + qx * (h0 + t2 * h2) - qts * h1) / k + tu, u0
            h0, h1, h2 = u0 + t2 * h1, h0, h1
        if abs(h0) > 1e150:
            e = math.frexp(abs(h0))[1]
            f = math.ldexp(1.0, -e)
            h0, h1, h2, u0, u1 = h0 * f, h1 * f, h2 * f, u0 * f, u1 * f
            terms = [_pairwise_sum(terms) * f]
            exponent += e
        terms.append(h0)
    return exponent * _LOG2, _pairwise_sum(terms)


def _as_points(params: ModelParams, *batches) -> list[np.ndarray]:
    """Validate and convert batches of kernel arguments to (B, d) complex arrays of one shape."""
    out = [np.asarray(pts, dtype=complex) for pts in batches]
    for arr in out:
        if arr.ndim != 2 or arr.shape[1] != params.d:
            raise UsageError(f"points must have shape (B, {params.d}), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("point coordinates must be finite")
    if len({arr.shape for arr in out}) > 1:
        raise UsageError(f"point batches must have one shape, got {[arr.shape for arr in out]}")
    return out


def kernel_exact_log_many(params: ModelParams, zs, ws) -> list[LogMagnitudePhase]:
    """K_n(z_b, w_b) for every pair b of two (B, d) arrays, in log/phase form
    and input order: X, S and the weight logs of all pairs come from numpy,
    then each pair runs the degree recurrence on its X and S."""
    z, w = _as_points(params, zs, ws)
    d, tau, n = params.d, params.tau, params.n
    t2 = tau * tau
    q = (1.0 - tau) * (1.0 + tau)  # 1 - tau^2 without cancellation near tau = 1
    log_pref = d * (0.5 * math.log(q) - math.log(math.pi))
    # X and S in the real operations of scalar complex arithmetic, no fused multiply-add:
    # they stay real on the diagonal.  The 2d weight logs are log_weight_omega's formula,
    # not its bits: numpy squares |z| where it calls pow (**), a last-bit gap in ~0.1%
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    x = np.sum(zr * wr + zi * wi, axis=1) + 1j * np.sum(zi * wr - zr * wi, axis=1)
    s = np.sum(zr * zr - zi * zi + (wr * wr - wi * wi), axis=1)
    s = s + 1j * np.sum(zr * zi + zi * zr - (wr * wi + wi * wr), axis=1)
    cr, ci = np.concatenate((zr, wr), axis=1), np.concatenate((zi, wi), axis=1)
    log_w = 0.5 * (-np.hypot(cr, ci) ** 2 + tau * (cr * cr - ci * ci))
    out = []
    for xb, sb, log_wb in zip(x.tolist(), s.tolist(), log_w.tolist()):
        if xb.imag == 0.0 and sb.imag == 0.0:  # every diagonal pair
            xb, sb = xb.real, sb.real
        log_scale, total = _degree_sum(q * xb, q * tau * sb, t2, d - 4.0, n)
        if total == 0:
            out.append(LogMagnitudePhase(-math.inf, 1.0 + 0.0j))
            continue
        size = abs(total)
        log_mag = math.fsum([log_pref, log_scale, math.log(size), *log_wb])
        out.append(LogMagnitudePhase(log_mag, total / size))
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
    """sum_{j < nterms} x^j / j! in log/phase form: for |x| < nterms, e^x
    minus the tail sum_{j >= nterms} x^j / j!.
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
        j = np.arange(nterms, dtype=float)
        logs = j * math.log(size) - np.array([lgamma(k + 1.0) for k in range(nterms)])
        return stable_sum_arrays(logs, np.exp(1j * (j * cmath.phase(x))))
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
    tail = LogMagnitudePhase(lead_log, 1.0 + 0.0j).scaled(lead * _pairwise_sum(terms))
    exp_x = LogMagnitudePhase.from_log(x)
    return stable_sum_arrays(
        np.array([exp_x.log_mag, tail.log_mag]), np.array([exp_x.phase, -tail.phase])
    )


def kernel_tau0_closed_log(params: ModelParams, z, w) -> LogMagnitudePhase:
    """Closed form at tau = 0: pi^{-d} exp(-(|z|^2+|w|^2)/2) sum_{j<n} (z.w)^j / j!.

    A third route, kept on purpose as the closed-form check of
    representation_equivalence and of bench/workloads.py."""
    if params.tau != 0.0:
        raise UsageError("kernel_tau0_closed_log requires tau = 0")
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
