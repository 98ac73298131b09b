"""Extended-precision oracles for the test suite, built on double-double
arithmetic (unevaluated sums of two doubles, ~31 significant digits).

Only the handful of operations the oracles need are implemented: add,
mul, div, sqrt, exp, and their complex pairs.  Error-free transforms
follow Dekker/Knuth; exp uses ln2 range reduction plus a Taylor tail.

Beside them live the plain-double references the package's own code is
compared against: the Hermite definition of the kernel, the complex node
expressions of the contour route, and the s-plane saddle frame
(PhaseFunction, saddle_frame, asymptotic_I_zero) that the t = s/tau
phase, saddles and expansions replaced.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from edgedpp import contour
from edgedpp import kernel as kernel_module
from edgedpp.errors import (
    ConsistencyError,
    ContourError,
    DegenerateCoordinatesError,
    DegenerateSaddleError,
    DomainError,
    UsageError,
)
from edgedpp.harness import ConvergenceReport, SeriesResult
from edgedpp.kernel import (
    ModelParams,
    as_point,
    kernel_exact_log_many,
    log_weight_omega,
    truncated_exp_series,
)
from edgedpp.special import LogMagnitudePhase, erfc_complex, stable_sum_arrays

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    return s, b - (s - a)


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


class DD:
    """Double-double number hi + lo with |lo| <= ulp(hi)/2."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @classmethod
    def from_int(cls, k: int) -> "DD":
        hi = float(k)
        return cls(hi, float(k - int(hi)))

    def __add__(self, other):
        other = _as_dd(other)
        s, e = two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        return DD(*quick_two_sum(s, e))

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_dd(other))

    def __rsub__(self, other):
        return _as_dd(other) + (-self)

    def __mul__(self, other):
        other = _as_dd(other)
        p, e = two_prod(self.hi, other.hi)
        e += self.hi * other.lo + self.lo * other.hi
        return DD(*quick_two_sum(p, e))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_dd(other)
        q1 = self.hi / other.hi
        r = self - other * DD(q1)
        q2 = r.hi / other.hi
        r = r - other * DD(q2)
        q3 = r.hi / other.hi
        s, e = quick_two_sum(q1, q2)
        return DD(*quick_two_sum(s, e + q3))

    def __rtruediv__(self, other):
        return _as_dd(other) / self

    def sqrt(self) -> "DD":
        if self.hi == 0.0:
            return DD(0.0)
        x = math.sqrt(self.hi)
        # one Newton step in dd: x' = (x + self/x)/2
        xd = DD(x)
        return (xd + self / xd) * DD(0.5)

    def exp(self) -> "DD":
        m = round(self.hi / math.log(2.0))
        r = self - DD_LN2 * DD.from_int(m)
        total = DD(1.0)
        term = DD(1.0)
        for k in range(1, 40):
            term = term * r / DD.from_int(k)
            total = total + term
            if abs(term.hi) < 1e-40 * abs(total.hi):
                break
        return total * DD(math.ldexp(1.0, m))

    def to_float(self) -> float:
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"


def _as_dd(x) -> DD:
    if isinstance(x, DD):
        return x
    if isinstance(x, int):
        return DD.from_int(x)
    return DD(float(x))


DD_PI = DD(3.141592653589793, 1.2246467991473532e-16)
DD_LN2 = DD(0.6931471805599453, 2.3190468138462996e-17)


class CDD:
    """Complex double-double."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=DD(0.0)):
        self.re = _as_dd(re)
        self.im = _as_dd(im)

    @classmethod
    def from_complex(cls, z: complex) -> "CDD":
        return cls(DD(z.real), DD(z.imag))

    def __add__(self, other):
        other = _as_cdd(other)
        return CDD(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _as_cdd(other)
        return CDD(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _as_cdd(other)
        return CDD(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, factor: DD) -> "CDD":
        return CDD(self.re * factor, self.im * factor)

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())


def _as_cdd(x) -> CDD:
    if isinstance(x, CDD):
        return x
    if isinstance(x, complex):
        return CDD.from_complex(x)
    return CDD(_as_dd(x))


def cdd_reciprocal(z: CDD) -> CDD:
    denom = z.re * z.re + z.im * z.im
    return CDD(z.re / denom, (DD(0.0) - z.im) / denom)


def erfc_series_cdd(z: complex, max_terms: int = 500) -> complex:
    """erfc(z) from the Maclaurin series of erf, in complex double-double.

    Valid wherever the ~31 digits of double-double absorb the series
    cancellation, i.e. |z| exp(2 (Re z)^2) well below 1e17.
    """
    zc = CDD.from_complex(z)
    zz = zc * zc
    term = zc  # z^(2k+1) / k!
    total = CDD(DD(0.0), DD(0.0))
    for k in range(max_terms):
        if k > 0:
            term = (term * zz).scale(DD(1.0) / DD.from_int(k))
        contrib = term.scale(DD(1.0) / DD.from_int(2 * k + 1))
        total = total + (contrib if k % 2 == 0 else CDD(DD(0.0), DD(0.0)) - contrib)
        if abs(contrib.to_complex()) < 1e-40 * (abs(total.to_complex()) + 1e-300):
            break
    erf = total.scale(DD(2.0) / DD_PI.sqrt())
    return (CDD(DD(1.0), DD(0.0)) - erf).to_complex()


def erfcx_asymptotic_cdd(z: complex, max_terms: int = 40) -> complex:
    """erfcx(z) for large |z|, Re z >= 0, from the asymptotic series in
    complex double-double; truncated at the smallest term."""
    zc = CDD.from_complex(z)
    inv2z2 = cdd_reciprocal((zc * zc).scale(DD(2.0)))
    total = CDD(DD(1.0), DD(0.0))
    term = CDD(DD(1.0), DD(0.0))
    best = 1.0
    for k in range(1, max_terms):
        term = (term * inv2z2).scale(DD.from_int(2 * k - 1))
        size = abs(term.to_complex())
        if size > best:
            break
        best = size
        total = total + (term if k % 2 == 0 else CDD(DD(0.0), DD(0.0)) - term)
    inv_zsqrtpi = cdd_reciprocal(zc.scale(DD_PI.sqrt()))
    return (total * inv_zsqrtpi).to_complex()


def erfc_one_maclaurin(terms: int = 60) -> float:
    """erfc(1) from the Maclaurin series of erf, in double-double."""
    total = DD(0.0)
    term = DD(1.0)  # z^(2k+1)/k! at z=1 is 1/k!
    for k in range(terms):
        if k > 0:
            term = term / DD.from_int(k)
        contrib = term / DD.from_int(2 * k + 1)
        total = total + (contrib if k % 2 == 0 else -contrib)
    erf1 = total * (DD(2.0) / DD_PI.sqrt())
    return (DD(1.0) - erf1).to_float()


def erfcx_asymptotic(x: float, max_terms: int = 30) -> float:
    """erfcx(x) for large real x from the asymptotic series, double-double.

    1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k, truncated at the
    smallest term.
    """
    inv2x2 = DD(1.0) / (DD(2.0) * DD(x) * DD(x))
    total = DD(1.0)
    term = DD(1.0)
    for k in range(1, max_terms):
        term = term * inv2x2 * DD.from_int(2 * k - 1)
        contrib = term if k % 2 == 0 else -term
        if abs(term.hi) > 1.0:  # series started diverging
            break
        total = total + contrib
    return (total / (DD(x) * DD_PI.sqrt())).to_float()


# Terms this many nats below the largest take exp in plain double: summed over
# a million terms, their rounding (eps e^-64 of the largest term each) stays
# below double-double resolution, and the double-double exp costs ~0.3 ms.
_DD_EXP_NATS = 64.0


def dd_sum_log_phase(log_mags, phases) -> complex:
    """Reference sum of exp(log_mag) * phase terms in double-double.

    The shared max shift keeps exponents in exp's comfortable range; the
    restored magnitude is returned as an ordinary complex (safe for the
    test scales used).
    """
    shift = max(log_mags)
    total = CDD(DD(0.0), DD(0.0))
    for lg, ph in zip(log_mags, phases):
        lg = float(lg) - shift
        mag = DD(lg).exp() if lg > -_DD_EXP_NATS else DD(math.exp(lg))
        total = total + CDD.from_complex(complex(ph)).scale(mag)
    return total.to_complex() * math.exp(shift)


_HERMITE_10 = [-30240, 0, 302400, 0, -403200, 0, 161280, 0, -23040, 0, 1024]


def hermite_phi10_oracle(x: complex, tau: float) -> complex:
    """phi_10(x) by the explicit degree-10 Hermite polynomial in double-double.

    phi_j(x) = sqrt((tau/2)^j / j!) H_j(c x) with c = sqrt((1-tau^2)/(2 tau)).
    """
    c2 = (DD(1.0) - DD(tau) * DD(tau)) / (DD(2.0) * DD(tau))
    c = c2.sqrt()
    arg = CDD.from_complex(complex(x)).scale(c)
    acc = CDD(DD(0.0), DD(0.0))
    for coeff in reversed(_HERMITE_10):
        acc = acc * arg + CDD(DD.from_int(coeff), DD(0.0))
    scale2 = DD(tau / 2.0)
    pw = DD(1.0)
    for _ in range(10):
        pw = pw * scale2
    fact = DD(1.0)
    for k in range(2, 11):
        fact = fact * DD.from_int(k)
    return acc.scale((pw / fact).sqrt()).to_complex()


_SMALLEST_NORMAL = 2.0**-1022


def phi_log_per_step(x: complex, tau: float, n: int):
    """The weighted Hermite values phi_0(x) .. phi_{n-1}(x), the per-coordinate
    factors of the kernel's definition, as (log |.|, phase) arrays.

    Normalized three-term recurrence
        phi_{j+1} = (sqrt(1-tau^2) x phi_j - tau sqrt(j) phi_{j-1}) / sqrt(j+1),
    one scalar step at a time; the iterates are rescaled whenever
    max(|phi_{j-1}|, |phi_j|) leaves [1e-150, 1e150], a subnormal pair
    (subnormal tau) by division, since exp(-log size) would overflow.
    """
    c = math.sqrt((1.0 - tau) * (1.0 + tau))
    logs = np.full(n, -math.inf)
    phases = np.ones(n, dtype=complex)
    prev = 0.0 + 0.0j
    cur = 1.0 + 0.0j
    scale = 0.0
    for j in range(n):
        if cur != 0:
            a = abs(cur)
            logs[j] = scale + math.log(a)
            phases[j] = cur / a
        nxt = (c * x * cur - tau * math.sqrt(j) * prev) / math.sqrt(j + 1)
        prev, cur = cur, nxt
        m = max(abs(cur), abs(prev))
        if m > 1e150 or (0.0 < m < 1e-150):
            shift = math.log(m)
            if m < _SMALLEST_NORMAL:
                prev /= m
                cur /= m
            else:
                factor = math.exp(-shift)
                prev *= factor
                cur *= factor
            scale += shift
    return logs, phases


def _log_l1(logs: np.ndarray) -> float:
    """log sum exp(logs), -inf for no nonzero term."""
    shift = float(np.max(logs))
    if shift == -math.inf:
        return shift
    return shift + math.log(float(np.sum(np.exp(logs - shift))))


def kernel_per_pair(params: ModelParams, z, w) -> tuple[LogMagnitudePhase, float, float]:
    """The kernel's definition, one pair at a time, independent of the
    degree recurrence kernel.kernel_exact_log_many runs.

    Each coordinate's Hermite values come from phi_log_per_step, for z_k and
    w_k separately even on the diagonal; the monomials (z_k conj(w_k))^j / j!
    of tau = 0 are taken term by term.  The degree sequences T_k[j] of the
    coordinates are convolved one by one, each degree m < n summed after its
    own max shift, and the last convolution is summed.  Returns the kernel,
    the log of the L1 norm of its multi-index terms (carried through the same
    convolutions with every phase set to 1), and the largest |log| of the
    per-coordinate values.
    """
    tau, n = params.tau, params.n
    seqs, log_size = [], 0.0
    for zk, wk in zip(as_point(params, z).tolist(), as_point(params, w).tolist()):
        log_w = 0.5 * (log_weight_omega(zk, tau) + log_weight_omega(wk, tau))
        if tau == 0.0:
            prod = zk * wk.conjugate()
            if prod == 0:
                logs = np.array([0.0] + [-math.inf] * (n - 1))
                phases = np.ones(n, dtype=complex)
            else:
                logs = np.array([j * math.log(abs(prod)) - math.lgamma(j + 1.0) for j in range(n)])
                phases = np.array([cmath.exp(1j * (j * cmath.phase(prod))) for j in range(n)])
        else:
            lz, pz = phi_log_per_step(zk, tau, n)
            lw, pw = phi_log_per_step(wk, tau, n)
            logs, phases = lz + lw, pz * np.conj(pw)
        finite = logs[logs > -math.inf]
        log_size = max(log_size, float(np.max(np.abs(finite))))
        pref = log_w + 0.5 * math.log((1.0 - tau) * (1.0 + tau)) - math.log(math.pi)
        seqs.append((logs + pref, phases))
    terms = (*seqs[0], seqs[0][0])
    for seq in seqs[1:]:
        terms = _convolve_by_degree(terms, seq)
    logs, phases, l1s = terms
    return stable_sum_arrays(logs, phases), _log_l1(l1s), log_size


def _convolve_by_degree(a, b):
    """c_m = sum_{i <= m} a_i b_{m-i} for every m below the common length.

    a is (logs, phases, L1 logs) of a contraction so far, b one coordinate's
    (logs, phases); c comes back in a's form.
    """
    (la, pa, l1a), (lb, pb) = a, b
    out = []
    for m in range(la.size):
        c = stable_sum_arrays(la[: m + 1] + lb[m::-1], pa[: m + 1] * pb[m::-1])
        out.append((c.log_mag, c.phase, _log_l1(l1a[: m + 1] + lb[m::-1])))
    return tuple(np.array(col) for col in zip(*out))


def kernel_mpmath_log(params: ModelParams, z, w, dps: int = 40) -> LogMagnitudePhase:
    """K_n(z, w) from the five-term degree recurrence of edgedpp.kernel's
    docstring, run in dps-digit mpmath arithmetic on the exact values of the
    double inputs: no rescaling, no rounding to speak of."""
    import mpmath as mp

    d, n = params.d, params.n
    with mp.workdps(dps):
        t = mp.mpf(params.tau)
        q = 1 - t * t
        zs = [mp.mpc(c) for c in as_point(params, z).tolist()]
        ws = [mp.mpc(c) for c in as_point(params, w).tolist()]
        x = mp.fsum(a * mp.conj(b) for a, b in zip(zs, ws))
        s = mp.fsum(a * a + mp.conj(b * b) for a, b in zip(zs, ws))
        qx, qts, qt2x, t2, t4 = q * x, q * t * s, q * t * t * x, t * t, t**4
        h0, h1, h2, h3 = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(0)
        terms = [h0]
        for m in range(n - 1):
            h0, h1, h2, h3 = (
                qx * h0 + ((2 * m - 2 + d) * t2 - qts) * h1 + qt2x * h2 - (m - 3 + d) * t4 * h3
            ) / (m + 1), h0, h1, h2
            terms.append(h0)
        total = mp.fsum(terms)
        if total == 0:
            return LogMagnitudePhase(-math.inf, 1.0 + 0.0j)
        log_w = mp.fsum(-abs(c) ** 2 + t * (c * c).real for c in zs + ws) / 2
        log_mag = d * (mp.log(q) / 2 - mp.log(mp.pi)) + log_w + mp.log(abs(total))
        return LogMagnitudePhase(float(log_mag), complex(total / abs(total)))


def phi_sequence(x: complex, tau: float, n: int) -> list[LogMagnitudePhase]:
    """The n weighted Hermite values phi_0(x) .. phi_{n-1}(x) from
    phi_log_per_step, one LogMagnitudePhase each, after the argument checks
    the recurrence itself leaves to its callers.

    Only defined for 0 < tau < 1; at tau = 0 the factors are monomials.
    """
    if tau == 0.0:
        raise UsageError("phi_sequence is the 0 < tau < 1 path; use the tau = 0 kernel form")
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if n < 1:
        raise DomainError("n must be >= 1")
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainError("x must be finite")
    logs, phases = phi_log_per_step(x, tau, n)
    return [LogMagnitudePhase(float(l), complex(p)) for l, p in zip(logs, phases)]


def integral_I_zero_closed(params: ModelParams, zeta: complex) -> LogMagnitudePhase:
    """Residue closed form of contour.integral_I_tau at tau = 0 and X = zeta:
    e^{-n zeta} sum_{j<n} (n zeta)^j / j!."""
    zeta = complex(zeta)
    series = truncated_exp_series(params.n * zeta, params.n)
    return series * LogMagnitudePhase.from_log(-params.n * zeta)


def pair_invariants(zp, wp) -> tuple[complex, complex, complex]:
    """X = sum z'_k conj(w'_k), Q = sum (z'_k - conj(w'_k))^2 and
    P = sum (z'_k + conj(w'_k))^2 of the pair (z', w'), each summed
    coordinate by coordinate."""
    zp = np.atleast_1d(np.asarray(zp, dtype=complex))
    wc = np.conj(np.atleast_1d(np.asarray(wp, dtype=complex)))
    return complex(np.sum(zp * wc)), complex(np.sum((zp - wc) ** 2)), complex(np.sum((zp + wc) ** 2))


def ginibre_invariants(zeta: complex) -> tuple[complex, complex, complex]:
    """(X, Q, P) = (zeta, 0, 4 zeta): the d = 1 pair z' = sqrt(zeta),
    w' = conj(z'), whose tau = 0 phase is zeta t."""
    zeta = complex(zeta)
    return zeta, 0j, 4.0 * zeta


def zpm_invariants(tau: float, z_plus: complex, z_minus: complex) -> tuple[complex, complex, complex]:
    """(X, Q, P) of a geometry z_pm pair at 0 < tau < 1: z_pm = c (sqrt P +- sqrt Q)/2
    with c^2 = sinh 2 xi_tau = q/(2 tau), so P = (z_+ + z_-)^2/c^2,
    Q = (z_+ - z_-)^2/c^2 and X = (P - Q)/4 = z_+ z_-/c^2."""
    inv_c2 = 2.0 * tau / ((1.0 - tau) * (1.0 + tau))
    z_plus, z_minus = complex(z_plus), complex(z_minus)
    return inv_c2 * z_plus * z_minus, inv_c2 * (z_plus - z_minus) ** 2, inv_c2 * (z_plus + z_minus) ** 2


def phase_at_pole(phase) -> complex:
    """F(tau) of a PhaseFunction; the log terms cancel exactly at the pole."""
    t = phase.tau
    return 0.5 * phase.p_sq * t / (1.0 + t) - 0.5 * phase.q_sq * t / (1.0 - t)


def quadrature_tau_complex(frame, params: ModelParams, r: float, theta: np.ndarray):
    """Reference for contour._quadrature at tau > 0 on |t| = r/tau: per-node
    (log magnitude, phase) of -e^{n (F(s) - F(tau))} (1-tau^2)^{d/2} s /
    ((s - tau) (1 - s^2)^{d/2}) at s = tau t = r e^{i theta}, in complex
    arithmetic at every node.

    log s is taken as log r + i theta, which differs from the principal
    branch by whole turns that the integer n absorbs.
    """
    tau, d, n = params.tau, params.d, params.n
    phase = frame.phase
    s = r * np.exp(1j * theta)
    f = 0.5 * phase.p_sq * s / (1.0 + s) - 0.5 * phase.q_sq * s / (1.0 - s)
    df = f - (math.log(r) + 1j * theta) + phase.log_tau - phase_at_pole(phase)
    rest = s / ((s - tau) * np.sqrt(1.0 - s * s) ** d)
    log_mag = n * df.real + np.log(np.abs(rest)) + 0.5 * d * math.log1p(-tau * tau)
    return log_mag, np.exp(1j * (n * df.imag)) * (rest / np.abs(rest)) * (-1.0)


def quadrature_zero_complex(zeta: complex, n: int, r: float, theta: np.ndarray):
    """Reference for contour._quadrature at tau = 0 and X = zeta: per-node
    (log magnitude, phase) of -e^{n (zeta s - log s - zeta)} s / (s - 1)
    at s = t = r e^{i theta}."""
    s = r * np.exp(1j * theta)
    df = zeta * s - (math.log(r) + 1j * theta) - zeta
    rest = s / (s - 1.0)
    log_mag = n * df.real + np.log(np.abs(rest))
    return log_mag, np.exp(1j * (n * df.imag)) * (rest / np.abs(rest)) * (-1.0)


def _phase_on_circle_reference(tau: float, x: complex, q_sum: complex, r: float, table: np.ndarray):
    """Re G on |t| = r from every term of both fractions, tau terms
    included at tau = 0; Im G at given node indices; and |1 - tau^2 t^2|^2."""
    _, sin, _, one_plus_cos, sin_2, two_sin_sq = table
    rho = tau * r
    e, c0 = 1.0 - rho, (1.0 - rho) * (1.0 + rho)
    to_plus = e * e + 2.0 * rho * one_plus_cos  # |1 + tau t|^2
    branch_sq = c0 * c0 + (2.0 * rho * rho) * two_sin_sq  # |1 - tau^2 t^2|^2
    a_scale, b_scale = r / to_plus, (r * rho) / branch_sq
    a_re, b_re = one_plus_cos - e, c0 - two_sin_sq  # the real parts over the scales
    q = (1.0 - tau) * (1.0 + tau)
    qx, qq = q * x, 0.5 * q * q_sum
    re_g = a_scale * (qx.real * a_re - qx.imag * sin) - b_scale * (qq.real * b_re - qq.imag * sin_2)

    def im_g(keep: np.ndarray) -> np.ndarray:
        a_part = qx.real * sin[keep] + qx.imag * a_re[keep]
        return a_scale[keep] * a_part - b_scale[keep] * (qq.real * sin_2[keep] + qq.imag * b_re[keep])

    return re_g, im_g, branch_sq


def quadrature_reference(params: ModelParams, circles, rows, table: np.ndarray, midpoints: bool):
    """Reference for contour._quadrature on a one-row block: the same real
    arithmetic on the same node table, but with every tau term formed at
    every tau, each node row indexed on its own and the turn (n - 1) m
    reduced as one product, so that equal floats show that the production
    pass's skips at tau r = 0, its gathered rows and its integer reduction
    change no bit."""
    assert len(rows) == 1, "the reference evaluates one circle"
    (x, q_sum, r), = (circles[i] for i in rows)
    tau, d, n = params.tau, params.d, params.n
    _, sin, one_minus_cos, _, sin_2, two_sin_sq = table
    rho = tau * r
    if not rho < 1.0:
        raise ContourError("contour touches the branch region of (1 - tau^2 t^2)^{d/2}")
    re_g, im_g, branch_sq = _phase_on_circle_reference(tau, x, q_sum, r, table)
    f_pole, log_r = (1.0 - tau) * x - 0.5 * tau * q_sum, math.log(r)
    to_pole = (1.0 - r) ** 2 + 2.0 * r * one_minus_cos  # |t - 1|^2
    log_mag = n * (re_g - (log_r + f_pole.real)) - 0.5 * np.log(to_pole) - (0.25 * d) * np.log(branch_sq)
    log_mag += log_r + 0.5 * d * math.log1p(-tau * tau)
    count = table.shape[1]

    def phase_of(keep: np.ndarray) -> np.ndarray:
        r_sin = r * sin[keep]
        arg_pole = np.arctan2(r_sin, (r - 1.0) - r * one_minus_cos[keep])
        branch_re = (1.0 - rho) * (1.0 + rho) + rho * rho * two_sin_sq[keep]
        arg_branch = np.arctan2(-rho * rho * sin_2[keep], branch_re)
        twice = 2 * count
        turn = ((n - 1) % twice * (2 * keep + midpoints) % twice) * (math.pi / count)
        phi = n * (im_g(keep) - f_pole.imag) - turn
        return np.exp(1j * (phi - arg_pole - (0.5 * d) * arg_branch + math.pi))

    return log_mag, phase_of


def node_pass_all_nodes(node_values, rows, count: int, midpoints: bool = False):
    """Reference for contour._node_pass on a one-row block: every node gets
    its weight e^{log_mag - shift}, and the L1 norm is their plain sum; the
    nodes within contour._KEEP_NATS of the largest get a phase."""
    assert len(rows) == 1, "the reference passes one row"
    log_mag, phase_of = node_values(rows, contour._trapezoid_nodes(count, midpoints), midpoints)
    shift = float(np.max(log_mag))
    if not shift < math.inf:
        raise DomainError("log magnitudes must be < +inf and not nan")
    weights = np.exp(log_mag - shift)
    keep = np.flatnonzero(log_mag >= shift - contour._KEEP_NATS)
    terms = np.zeros(count, dtype=complex)
    terms[keep] = weights[keep] * phase_of(keep)
    return [shift], [float(np.sum(weights))], terms[None]


def degree_sum_reference(qx, qts, t2: float, d4: float, n: int):
    """Reference for kernel._degree_sum: its difference-form loop with every
    term formed at every tau, as it ran before the loop skipped the +-0
    terms at tau = 0.  Same arguments and (log scale, total) result."""
    h0, h1, h2, u0, u1 = (type(qx)(v) for v in (1, 0, 0, 1, 0))
    terms = [h0]
    exponent = 0
    for k in range(1, n):
        tu = t2 * u1
        u0, u1 = (d4 * tu + qx * (h0 + t2 * h2) - qts * h1) / k + tu, u0
        h0, h1, h2 = u0 + t2 * h1, h0, h1
        if abs(h0) > 1e150:
            e = math.frexp(abs(h0))[1]
            f = math.ldexp(1.0, -e)
            h0, h1, h2, u0, u1 = h0 * f, h1 * f, h2 * f, u0 * f, u1 * f
            terms = [kernel_module._pairwise_sum(terms) * f]
            exponent += e
        terms.append(h0)
    return exponent * math.log(2.0), kernel_module._pairwise_sum(terms)


def weight_omega(zeta: complex, tau: float) -> float:
    """Planar weight omega(zeta) = exp(-|zeta|^2 + tau Re zeta^2)."""
    if not (0.0 <= tau < 1.0):
        raise DomainError(f"tau must lie in [0, 1), got {tau}")
    zeta = complex(zeta)
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        raise DomainError("zeta must be finite")
    return math.exp(log_weight_omega(zeta, tau))


def correlation_k(params: ModelParams, pts: Sequence) -> float:
    """k-point correlation det(K_n(z_i, z_j))_{i,j <= k}, for k <= 6.

    Returned as the unnormalized determinant (an intensity, not a
    probability density).  The k x k kernel matrix comes from one batched
    kernel_exact_log_many call over all k^2 pairs.
    """
    points = np.array([as_point(params, p) for p in pts])
    k = len(points)
    if not 1 <= k <= 6:
        raise UsageError(f"correlation_k supports 1 <= k <= 6 points, got {k}")
    rows = np.repeat(points, k, axis=0)  # z_i for pair (i, j) at i k + j
    cols = np.tile(points, (k, 1))  # z_j
    mat = np.array([v.value for v in kernel_exact_log_many(params, rows, cols)]).reshape(k, k)
    det = complex(np.linalg.det(mat))
    scale = max(abs(det), 1.0)
    if abs(det.imag) > 1e-10 * scale:
        raise ConsistencyError(f"correlation determinant not real: {det!r}")
    return det.real


_SQRT2 = math.sqrt(2.0)


def elliptic_coords(zeta: complex, tol: float = 1e-12) -> tuple[float, float]:
    """Invert zeta = sqrt(2) cosh(xi + i eta) with xi >= 0, eta in (-pi, pi]."""
    zeta = complex(zeta)
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        raise DomainError("zeta must be finite")
    w = zeta / _SQRT2
    if min(abs(w - 1.0), abs(w + 1.0)) < tol:
        raise DegenerateCoordinatesError("elliptic coordinates are singular at the foci")
    g = cmath.log(w + cmath.sqrt(w - 1.0) * cmath.sqrt(w + 1.0))
    xi, eta = g.real, g.imag
    if xi < 0.0:  # principal acosh keeps Re >= 0; guard rounding at xi ~ 0
        xi, eta = -xi, -eta
    return xi, eta


def parse_report_json(text: str) -> list[ConvergenceReport]:
    """Inverse of emit_report(..., fmt="json")."""
    payload = json.loads(text)
    reports = []
    for rep in payload:
        series = tuple(
            SeriesResult(
                d=s["d"],
                tau=s["tau"],
                samples=s["samples"],
                fitted_exponent=s["fitted_exponent"],
                passed=s["passed"],
                note=s.get("note", ""),
            )
            for s in rep["series"]
        )
        reports.append(
            ConvergenceReport(
                kind=rep["kind"],
                seed=rep["seed"],
                series=series,
                passed=rep["passed"],
            )
        )
    return reports


# ----------------------------------------------------------------------
# The s-plane saddle frame: the reference the t = s/tau objects of
# contour and saddle are compared against, at 0 < tau < 1.
# ----------------------------------------------------------------------


def xi_for_tau(tau: float) -> float:
    """Elliptic radius of the droplet boundary, xi_tau = log(1/tau) / 2."""
    if not (0.0 < tau < 1.0):
        raise DomainError(f"xi_tau requires 0 < tau < 1, got {tau}")
    return 0.5 * math.log(1.0 / tau)


def zpm_of_invariants(tau: float, x: complex, q_sum: complex, p_sum: complex) -> tuple[complex, complex]:
    """The s-plane pair z_pm = sqrt(sinh 2 xi_tau)/2 (sqrt P +- sqrt Q), principal
    roots, the inverse of zpm_invariants; X does not enter."""
    c = math.sqrt(math.sinh(2.0 * xi_for_tau(tau)))
    s1, s2 = cmath.sqrt(complex(p_sum)), cmath.sqrt(complex(q_sum))
    return 0.5 * c * (s1 + s2), 0.5 * c * (s1 - s2)


class PhaseFunction:
    """Phase F(s) = G(s/tau) - log(s/tau) of one z_pm pair, with derivatives:

    F(s) = s/(1+s) (z_+ + z_-)^2 / 2 - s/(1-s) (z_+ - z_-)^2 / 2 - log s + log tau.
    """

    def __init__(self, tau: float, z_plus: complex, z_minus: complex) -> None:
        if not (0.0 < tau < 1.0):
            raise DomainError(f"PhaseFunction requires 0 < tau < 1, got {tau}")
        self.tau = float(tau)
        self.z_plus = complex(z_plus)
        self.z_minus = complex(z_minus)
        self.p_sq = (self.z_plus + self.z_minus) ** 2
        self.q_sq = (self.z_plus - self.z_minus) ** 2
        self.log_tau = math.log(tau)

    def F(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return 0.5 * self.p_sq * s / (1.0 + s) - 0.5 * self.q_sq * s / (1.0 - s) - np.log(s) + self.log_tau

    def dF(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return 0.5 * self.p_sq / (1.0 + s) ** 2 - 0.5 * self.q_sq / (1.0 - s) ** 2 - 1.0 / s

    def d2F(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return -self.p_sq / (1.0 + s) ** 3 - self.q_sq / (1.0 - s) ** 3 + 1.0 / s**2

    def d3F(self, s):
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return 3.0 * self.p_sq / (1.0 + s) ** 4 - 3.0 * self.q_sq / (1.0 - s) ** 4 - 2.0 / s**3


@dataclass(frozen=True)
class SaddleFrame:
    """Saddle quadruple of the s-plane phase with its values at 1/a."""

    a: complex
    a_inv: complex
    b: complex
    b_inv: complex
    F_at_a_inv: complex
    F2_at_a_inv: complex
    z_plus: complex
    z_minus: complex
    radius: float
    phase: PhaseFunction

    @property
    def saddles(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.a_inv, self.b, self.b_inv)


def saddle_points(z_plus: complex, z_minus: complex) -> tuple[complex, complex, complex, complex]:
    """The saddle quadruple (a, 1/a, b, 1/b) of F: a = w_+ w_- / 2 and
    b = w_+ / w_-, w_pm = z_pm + sqrt(z_pm^2 - 2) on the outer branch, so
    |a| >= 1; focal inputs are reported, not refused."""
    wp = contour._outer_root(complex(z_plus), 2.0)
    wm = contour._outer_root(complex(z_minus), 2.0)
    a = 0.5 * wp * wm
    b = wp / wm
    return a, 1.0 / a, b, 1.0 / b


def saddle_frame(params: ModelParams, z_plus: complex, z_minus: complex) -> SaddleFrame:
    """The s-plane saddle frame of a z_pm pair; refuses focal inputs, z_pm^2 within 1e-10 of 2."""
    z_plus, z_minus = complex(z_plus), complex(z_minus)
    if min(abs(z_plus * z_plus - 2.0), abs(z_minus * z_minus - 2.0)) < 1e-10:
        raise DegenerateSaddleError("saddle points coincide at a focal input")
    phase = PhaseFunction(params.tau, z_plus, z_minus)
    a, a_inv, b, b_inv = saddle_points(z_plus, z_minus)
    return SaddleFrame(
        a=a, a_inv=a_inv, b=b, b_inv=b_inv,
        F_at_a_inv=complex(phase.F(a_inv)), F2_at_a_inv=complex(phase.d2F(a_inv)),
        z_plus=z_plus, z_minus=z_minus, radius=abs(a_inv), phase=phase,
    )


def frame_of_invariants(params: ModelParams, x: complex, q_sum: complex, p_sum: complex) -> SaddleFrame:
    """The s-plane saddle frame of the pair invariants X, Q and P."""
    return saddle_frame(params, *zpm_of_invariants(params.tau, x, q_sum, p_sum))


def phi_at_pole_s(frame: SaddleFrame) -> complex:
    """phi(tau) of the s plane: the root of F(1/a) - F(tau) whose sign
    matches the two-term series at the saddle 1/a."""
    pole = frame.phase.tau
    step = pole - frame.a_inv
    if abs(step) <= 1e-14 * (1.0 + abs(frame.a_inv)):
        return 0j
    f2 = frame.F2_at_a_inv
    expected = -1j * cmath.sqrt(0.5 * f2) * step - (1j / (6.0 * _SQRT2)) * complex(
        frame.phase.d3F(frame.a_inv)
    ) / cmath.sqrt(f2) * step * step
    w = cmath.sqrt(frame.F_at_a_inv - complex(frame.phase.F(pole)))
    return w if abs(w - expected) <= abs(-w - expected) else -w


def asymptotic_I_zero(params: ModelParams, delta: complex) -> complex:
    """The tau = 0 edge expansion of N at X = 1 + Delta, a truncation of its
    own: 1/2 erfc(sqrt(n) Delta / sqrt 2)
      + e^{-n Delta^2 / 2} (n Delta^2 - 1) / (3 sqrt(2 pi n)).
    saddle.asymptotic_I_tau at tau = 0 agrees with it to O(1/n)."""
    n = params.n
    delta = complex(delta)
    gauss = cmath.exp(-0.5 * n * delta * delta)
    return 0.5 * erfc_complex(math.sqrt(n) * delta / _SQRT2) + gauss * (n * delta * delta - 1.0) / (
        3.0 * math.sqrt(2.0 * math.pi * n)
    )
