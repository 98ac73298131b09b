"""Exact kernel evaluation: weights, weighted Hermite sequences, the degree
recurrence against the Hermite definition, 40-digit mpmath and brute-force
enumeration, densities, and determinantal correlations."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgedpp import kernel
from edgedpp.errors import DomainError, UsageError
from edgedpp.kernel import (
    ModelParams,
    kernel_exact,
    kernel_exact_log,
    kernel_exact_log_many,
    kernel_tau0_closed_log,
    log_weight_omega,
    rho1_density,
    truncated_exp_series,
)

from oracles import (
    correlation_k,
    degree_sum_reference,
    hermite_phi10_oracle,
    kernel_mpmath_log,
    kernel_per_pair,
    phi_log_per_step,
    phi_sequence,
    weight_omega,
)


def kernel_brute_force(params: ModelParams, z, w, magnitudes: bool = False) -> complex:
    """Naive multi-index enumeration with plain Hermite recurrences.

    With magnitudes=True it sums the terms' absolute values instead: the L1
    norm that bounds the rounding of any evaluation of the sum.
    """
    tau, n, d = params.tau, params.n, params.d

    def phi_direct(x, j):
        if tau == 0.0:
            return x**j / math.sqrt(math.factorial(j))
        c = math.sqrt((1 - tau**2) / (2 * tau))
        h = [1.0 + 0j, 2 * c * x]
        for k in range(1, j + 1):
            h.append(2 * c * x * h[k] - 2 * k * h[k - 1])
        return math.sqrt((tau / 2) ** j / math.factorial(j)) * h[j]

    total = 0j
    for jj in itertools.product(range(n), repeat=d):
        if sum(jj) >= n:
            continue
        term = 1.0 + 0j
        for k in range(d):
            term *= phi_direct(z[k], jj[k]) * np.conj(phi_direct(w[k], jj[k]))
        total += abs(term) if magnitudes else term
    pref = (math.sqrt(1 - tau**2) / math.pi) ** d
    logw = 0.5 * sum(log_weight_omega(z[k], tau) + log_weight_omega(w[k], tau) for k in range(d))
    return pref * math.exp(logw) * total


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(d=0, tau=0.5, n=4)
    with pytest.raises(DomainError):
        ModelParams(d=1, tau=1.0, n=4)
    with pytest.raises(DomainError):
        ModelParams(d=1, tau=-0.1, n=4)
    with pytest.raises(DomainError):
        ModelParams(d=1, tau=0.5, n=0)
    assert ModelParams(d=2, tau=0.0, n=8).point_count == math.comb(9, 2)


def test_weight_omega_values():
    assert weight_omega(0.0, 0.3) == 1.0
    assert abs(weight_omega(1.0, 0.0) - math.exp(-1.0)) <= 1e-16
    assert abs(weight_omega(1j, 0.5) - math.exp(-1.5)) <= 1e-16
    with pytest.raises(DomainError):
        weight_omega(1.0, 1.0)


def test_phi_sequence_low_degrees():
    tau = 0.4
    for x in (0.3 + 0.2j, -1.5j, 2.0):
        seq = phi_sequence(x, tau, 3)
        assert abs(seq[0].value - 1.0) <= 1e-15
        assert abs(seq[1].value - math.sqrt(1 - tau**2) * x) <= 1e-14 * max(1.0, abs(x))


def test_phi_sequence_degree_ten_against_dd_oracle():
    x, tau = 2.0 + 1.0j, 0.3
    seq = phi_sequence(x, tau, 11)
    ref = hermite_phi10_oracle(x, tau)
    assert abs(seq[10].value - ref) <= 1e-11 * abs(ref)


def test_phi_sequence_rejects_tau_zero():
    with pytest.raises(UsageError):
        phi_sequence(1.0, 0.0, 4)


def _scaled_gap(a, b, log_scale: float) -> float:
    """|a - b| / exp(log_scale) for two LogMagnitudePhase values."""
    def scaled(v):
        return 0.0 if v.log_mag == -math.inf else cmath.exp(v.log_mag - log_scale) * v.phase

    return abs(scaled(a) - scaled(b))


def _hermite_bound(d: int, log_size: float, weight: float) -> float:
    """The Hermite definition's error in units of the terms' L1 norm.

    Each of the 2d Hermite values in a multi-index term carries up to
    1e-13 + one ulp of its log size in its log and 1e-14 in its phase, which
    moves a sum of terms by that much times their L1 norm, plus 64 eps for
    the sum's rounding.  Against a reference that rounds nothing, the weight
    sqrt(omega(z) omega(w)) adds one rounding of its log, whose size is at
    most weight = sum_k (|z_k|^2 + |w_k|^2) (|log omega(z)| <= (1 + tau)|z|^2,
    halved): eps times that.
    """
    eps = np.finfo(float).eps
    return 2 * d * (1e-13 + np.spacing(log_size) + 1e-14) + eps * (64 + weight)


# |x| = 60 drives the per-step iterates past 1e150 (rescaled down); small x
# and tau near 0 let them fall below 1e-150 (rescaled up); x = 0 gives exact
# zeros at every odd degree, and with a subnormal tau a subnormal iterate.
@pytest.mark.parametrize("x", [0j, 0.7 - 0.2j, 30.0 + 12.0j, -60.0j, 42.0 - 42.0j])
@pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e-6, 0.5, 0.999999])
def test_phi_log_arrays_match_the_per_step_loop(x, tau):
    # the d = 1 kernel from the degree recurrence against the Hermite
    # definition contracted from the per-step loop's phi log arrays
    # (kernel_per_pair), within the definition's own bound
    for n in (1, 2, 4096):
        params = ModelParams(d=1, tau=tau, n=n)
        for w in (x, 0.5 * x + 0.3):
            got = kernel_exact_log(params, [x], [w])
            ref, l1_log, log_size = kernel_per_pair(params, [x], [w])
            tol = _hermite_bound(1, log_size, abs(x) ** 2 + abs(w) ** 2)
            assert _scaled_gap(got, ref, l1_log) <= tol, (n, w)


def test_phi_log_arrays_cases_reach_both_rescalings():
    # the cases above drive the Hermite definition's per-step loop through
    # both of its rescalings, so the d = 1 comparison covers them
    top = phi_log_per_step(-60.0j, 0.5, 4096)[0]
    bottom = phi_log_per_step(0.7 - 0.2j, 1e-6, 4096)[0]
    assert top.max() > math.log(1e150) and bottom.min() < math.log(1e-150)


def test_kernel_zero_index_only():
    for d in (1, 2, 3):
        params = ModelParams(d=d, tau=0.0, n=5)
        z = np.zeros(d, dtype=complex)
        assert abs(kernel_exact(params, z, z) - math.pi ** (-d)) <= 1e-14


def test_kernel_two_term_direct_sum():
    # K_2(1, 1) = pi^{-1} e^{-(1+1)/2} (1 + 1) = 2 e^{-1} / pi
    params = ModelParams(d=1, tau=0.0, n=2)
    val = kernel_exact(params, [1.0], [1.0])
    assert abs(val - 2.0 * math.exp(-1.0) / math.pi) <= 1e-15


def test_kernel_matches_brute_force_enumeration():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for tau in (0.0, 0.5):
            for n in (2, 4, 8):
                params = ModelParams(d=d, tau=tau, n=n)
                z = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                w = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                got = kernel_exact(params, z, w)
                ref = kernel_brute_force(params, z, w)
                assert abs(got - ref) <= 1e-12 * abs(ref)


def test_kernel_matches_brute_force_enumeration_d3_n16():
    # one larger multi-index enumeration (816 indices) as a heavier oracle
    rng = np.random.default_rng(77)
    params = ModelParams(d=3, tau=0.6, n=16)
    z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    got = kernel_exact(params, z, w)
    ref = kernel_brute_force(params, z, w)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_contraction_matches_brute_force_enumeration():
    # the recurrence's d-dependent coefficients, on and off the diagonal
    rng = np.random.default_rng(2026)
    for d in (2, 3, 4):
        for tau in (0.0, 0.5, 0.9):
            for n in (1, 2, 5, 12):
                params = ModelParams(d=d, tau=tau, n=n)
                z = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                w = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                for other in (w, z):
                    got = kernel_exact(params, z, other)
                    ref = kernel_brute_force(params, z, other)
                    assert abs(got - ref) <= 1e-13 * abs(ref), (d, tau, n, other is z)


def _batch(seed: int, d: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Point pairs that mix the cases a batch must keep apart: a diagonal
    pair of large coordinates (|x| in [40, 60], whose Hermite iterates pass
    1e150 by n = 300 at tau = 0.5), an off-diagonal pair of small ones, a
    diagonal pair and an off-diagonal pair with a zero coordinate (whose
    iterates fall below 1e-150 at small tau), then random pairs of any of
    these kinds."""
    rng = np.random.default_rng(seed)

    def coords(scale):
        return scale * np.exp(1j * rng.uniform(-math.pi, math.pi, d))

    zs, ws = [], []
    for i in range(rows):
        kind = i if i < 4 else int(rng.integers(4))
        z = coords(rng.uniform(40.0, 60.0, d) if kind == 0 else rng.uniform(0.0, 1.5, d))
        if kind >= 2:
            z[rng.integers(d)] = 0.0
        w = z.copy() if kind in (0, 2) else z + coords(rng.uniform(0.0, 0.5, d))
        if kind == 3:
            w[np.flatnonzero(z == 0)] = 0.0
        zs.append(z)
        ws.append(w)
    return np.array(zs), np.array(ws)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    tau=st.one_of(st.just(0.0), st.just(5e-324), st.floats(min_value=0.0, max_value=0.999)),
    n=st.integers(min_value=1, max_value=512),
    rows=st.integers(min_value=4, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    perm_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(d=2, tau=0.5, n=512, rows=4, seed=1, perm_seed=2)
@example(d=1, tau=5e-324, n=64, rows=5, seed=3, perm_seed=4)
@example(d=3, tau=0.0, n=12, rows=6, seed=5, perm_seed=6)
def test_batched_kernel_matches_per_pair_references(d, tau, n, rows, seed, perm_seed):
    pytest.importorskip("mpmath")
    params = ModelParams(d=d, tau=tau, n=n)
    zs, ws = _batch(seed, d, rows)
    got = kernel_exact_log_many(params, zs, ws)
    assert len(got) == rows
    for b in range(rows):
        ref = kernel_mpmath_log(params, zs[b], ws[b])
        hermite, l1_log, log_size = kernel_per_pair(params, zs[b], ws[b])
        # the Hermite definition's bound (_hermite_bound); both routes meet it
        weight = float(np.sum(np.abs(zs[b]) ** 2 + np.abs(ws[b]) ** 2))
        tol = _hermite_bound(d, log_size, weight)
        assert _scaled_gap(got[b], ref, l1_log) <= tol, (b, got[b], ref)
        assert _scaled_gap(hermite, ref, l1_log) <= tol, (b, hermite, ref)
        if n <= 12 and (tau == 0.0 or tau >= 1e-6) and np.max(np.abs(zs[b])) <= 3.0:
            brute = kernel_brute_force(params, zs[b], ws[b])
            l1 = kernel_brute_force(params, zs[b], ws[b], magnitudes=True).real
            assert abs(got[b].value - brute) <= 1e-13 * l1, (b, got[b].value, brute)
    perm = np.random.default_rng(perm_seed).permutation(rows)
    shuffled = kernel_exact_log_many(params, zs[perm], ws[perm])
    assert [(v.log_mag, v.phase) for v in shuffled] == [(got[i].log_mag, got[i].phase) for i in perm]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_near_tau_one_against_mpmath(d):
    # tau = 0.999999, n = 4096: the recurrence's roots +-tau are double and
    # its iterates nearly equal; the five-term form run directly erred by up
    # to 7e4 eps of the L1 norm on such small points, the bound is about 1e3
    pytest.importorskip("mpmath")
    params = ModelParams(d=d, tau=0.999999, n=4096)
    z = np.array([0.7 - 0.2j, -0.3 + 0.5j, 0.1j][:d])
    w = z + 0.3
    got = kernel_exact_log(params, z, w)
    ref = kernel_mpmath_log(params, z, w)
    hermite, l1_log, log_size = kernel_per_pair(params, z, w)
    tol = _hermite_bound(d, log_size, float(np.sum(np.abs(z) ** 2 + np.abs(w) ** 2)))
    assert _scaled_gap(got, ref, l1_log) <= tol, (got, ref)
    assert _scaled_gap(hermite, ref, l1_log) <= tol, (hermite, ref)


def test_kernel_at_deep_bulk_off_diagonal_pairs_against_mpmath():
    # d = 2, tau = 0.05, n = 4096, |z_k| = 0.3 sqrt(n), w = z + 0.5 e^{i phi}:
    # deep in the bulk, off the diagonal, the recurrence meets the Hermite
    # definition's bound in units of |K|, at most the terms' L1 norm
    pytest.importorskip("mpmath")
    params = ModelParams(d=2, tau=0.05, n=4096)
    for k in range(4):
        z = 0.3 * math.sqrt(params.n) * np.exp(1j * (np.array([0.4, 1.9]) + 1.3 * k))
        w = z + 0.5 * np.exp(1j * (np.array([0.7, 1.8]) + 2.0 * k))
        got = kernel_exact_log(params, z, w)
        ref = kernel_mpmath_log(params, z, w)
        tol = _hermite_bound(2, ref.log_mag, float(np.sum(np.abs(z) ** 2 + np.abs(w) ** 2)))
        assert _scaled_gap(got, ref, ref.log_mag) <= tol, (k, got, ref)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [0.0, 5e-324, 0.5, 0.999999])
def test_degree_sum_on_real_invariants_is_the_complex_loop_in_floats(d, tau):
    # real X and S run the loop in float arithmetic: the same bits as the
    # complex loop, whose imaginary parts stay 0; q X = 3000 rescales
    q = (1.0 - tau) * (1.0 + tau)
    for n in (1, 2, 64, 4096):
        for x, s in ((0.7, -0.3), (-25.0 / q, 40.0), (3000.0 / q, 1500.0 / q)):
            got = kernel._degree_sum(q * x, q * tau * s, tau * tau, d - 4.0, n)
            ref = kernel._degree_sum(q * complex(x), q * tau * complex(s), tau * tau, d - 4.0, n)
            assert type(got[1]) is float and ref[1].imag == 0.0
            assert got == (ref[0], ref[1].real), (n, x, s)
    assert got[0] > 0.0


@pytest.mark.parametrize("n", [1, 2, 64, 4096])
@pytest.mark.parametrize("tau", [0.0, 1e-170])
def test_degree_sum_at_tau_zero_gives_the_difference_form_floats(tau, n):
    # at tau = 0 (tau^2 and q tau S both 0) the loop runs h_k = q X h_{k-1}/k
    # alone; the terms it drops are +-0, so it returns the floats (==) of the
    # difference-form loop in tests/oracles.py, for float and complex X up to
    # |X| = 2n, past the rescale at 1e150.  At tau = 1e-170, tau^2 underflows
    # to 0 but q tau S does not, and the full loop runs
    rng = np.random.default_rng(n)
    q, t2 = (1.0 - tau) * (1.0 + tau), tau * tau
    assert t2 == 0.0
    for size in (0.0, 0.3, 0.5 * n, n, 2.0 * n):
        for d in (1, 2, 3):
            s_re, sign, angle, s_im = (float(v) for v in rng.uniform(-1.0, 1.0, 4))
            s_re, s_im = 2.0 * n * s_re, n * s_im  # Python floats and complexes, as the kernel passes
            for x, s in ((math.copysign(size, sign), s_re), (size * cmath.exp(1j * math.pi * angle), complex(s_re, s_im))):
                qts = q * tau * s
                assert (qts != 0) == (tau > 0.0)
                got = kernel._degree_sum(q * x, qts, t2, d - 4.0, n)
                assert got == degree_sum_reference(q * x, qts, t2, d - 4.0, n), (size, d, x, s)
                assert type(got[1]) is type(x)
    assert (got[0] > 0.0) == (n == 4096)  # |X| = 2n rescaled at n = 4096


def test_diagonal_kernel_values_have_phase_exactly_one():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        for tau in (0.0, 0.5, 0.999):
            params = ModelParams(d=d, tau=tau, n=64)
            zs = 4.0 * (rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d)))
            for got in kernel_exact_log_many(params, zs, zs):
                assert got.phase in (1.0, -1.0) and got.phase.imag == 0.0, (d, tau, got)


def test_batched_kernel_validates_its_arguments():
    params = ModelParams(d=2, tau=0.5, n=4)
    assert kernel_exact_log_many(params, np.empty((0, 2)), np.empty((0, 2))) == []
    with pytest.raises(UsageError):
        kernel_exact_log_many(params, [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UsageError):
        kernel_exact_log_many(params, [[1.0, 2.0]], [[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        kernel_exact_log_many(params, [[1.0, math.inf]], [[1.0, 2.0]])
    # one point, as every other route takes it: a non-finite real or imaginary part
    for bad in ([1.0, complex(1.0, math.nan)], [complex(-math.inf, 0.0), 0.0], [0.0, complex(0.0, math.inf)]):
        with pytest.raises(DomainError):
            kernel.as_point(params, bad)


def test_d2_evaluation_memory_is_linear_in_n():
    params = ModelParams(d=2, tau=0.5, n=4096)
    z = np.array([40.0 + 20.0j, -30.0 + 5.0j])
    tracemalloc.start()
    try:
        kernel_exact_log(params, z, z + 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("tau", [1e-300, 1e-310, 5e-324])
def test_kernel_at_subnormal_tau_is_the_tau0_kernel(tau):
    # at z = 0 the odd phi_j vanish and the even ones fall to tau^{j/2},
    # a subnormal iterate once tau is subnormal; the rescaling must not overflow
    for d in (1, 2):
        z = np.zeros(d, dtype=complex)
        got = kernel_exact(ModelParams(d=d, tau=tau, n=9), z, z)
        assert got == kernel_tau0_closed_log(ModelParams(d=d, tau=0.0, n=9), z, z).value


@pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e-12])
def test_kernel_is_continuous_as_tau_goes_to_zero(tau):
    # near-edge pairs (|z|^2 = n) at n = 4096.  To first order in tau the
    # weights move log K by at most tau (|z|^2 + |w|^2) / 2 and the
    # recurrence's S term by about tau |S| / 2, no more than that again;
    # the rest is one rounding of the weight's log per evaluation
    eps = np.finfo(float).eps
    rng = np.random.default_rng(4)
    n = 4096
    for d in (1, 2, 3):
        z = math.sqrt(n / d) * np.exp(1j * rng.uniform(-math.pi, math.pi, d))
        for w in (z, z + 0.4 * np.exp(1j * rng.uniform(-math.pi, math.pi, d))):
            size = float(np.sum(np.abs(z) ** 2 + np.abs(w) ** 2))
            base = kernel_exact_log(ModelParams(d=d, tau=0.0, n=n), z, w)
            got = kernel_exact_log(ModelParams(d=d, tau=tau, n=n), z, w)
            assert abs(got.ratio_to(base) - 1.0) <= tau * size + 2 * eps * (64 + size), (d, w is z)


def test_kernel_rescales_past_1e150_as_the_closed_form():
    # |X| ~ 1e4 > n: the degree terms grow to e^7600 by the last degree, so
    # the recurrence rescales about 22 times; both routes carry log
    # magnitudes as large as |z|^2 + |w|^2 and round them once or twice
    eps = np.finfo(float).eps
    params = ModelParams(d=2, tau=0.0, n=4096)
    z = np.array([80.0, 60.0j])
    for w in (z, np.array([79.0 + 3.0j, 1.0 + 61.0j]), -z):
        size = float(np.sum(np.abs(z) ** 2 + np.abs(w) ** 2))
        got = kernel_exact_log(params, z, w)
        ref = kernel_tau0_closed_log(params, z, w)
        assert abs(got.ratio_to(ref) - 1.0) <= 8 * eps * size


def test_tau0_closed_form_j_zero_case():
    params = ModelParams(d=2, tau=0.0, n=6)
    z = np.array([1.0, 1.0j])
    w = np.array([1.0j, 1.0])  # z.w = 1 conj(i) + i conj(1) = -i + i = 0
    zw = np.sum(z * np.conj(w))
    assert abs(zw) < 1e-15
    expect = math.pi ** (-2) * math.exp(-0.5 * (2.0 + 2.0))
    assert abs(kernel_tau0_closed_log(params, z, w).value - expect) <= 1e-15


def test_tau0_closed_matches_exact():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        params = ModelParams(d=d, tau=0.0, n=16)
        for _ in range(50):
            z = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
            w = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
            a = kernel_exact(params, z, w)
            b = kernel_tau0_closed_log(params, z, w).value
            assert abs(a - b) <= 1e-12 * abs(b)


def test_truncated_exp_series_against_mpmath():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    assert truncated_exp_series(0.0, 1).value == 1.0
    assert truncated_exp_series(3.0 - 2.0j, 1).value == 1.0
    rng = np.random.default_rng(17)
    for n in (1, 5, 16, 64, 256):
        for _ in range(20):
            x = n * rng.uniform(0.0, 0.999) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            got = truncated_exp_series(x, n)
            with mp.workdps(50):
                terms = [mp.mpc(x) ** j / mp.factorial(j) for j in range(n)]
                ref = mp.fsum(terms)
                # the best any double computation can promise: eps times the
                # ratio of the terms' absolute sum to the result
                cond = float(mp.fsum(abs(t) for t in terms) / abs(ref))
                ratio = mp.exp(mp.mpf(got.log_mag) - mp.log(abs(ref))) * mp.mpc(got.phase) * abs(ref) / ref
                assert float(abs(ratio - 1)) <= 16 * eps * cond, (x, n)


def test_tau0_closed_form_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(9)  # the draws of test_tau0_closed_matches_exact
    for d in (1, 2, 3):
        params = ModelParams(d=d, tau=0.0, n=16)
        for _ in range(50):
            z = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
            w = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
            got = kernel_tau0_closed_log(params, z, w).value
            with mp.workdps(50):
                zs = [mp.mpc(c) for c in z]
                ws = [mp.mpc(c) for c in w]
                x = mp.fsum(a * mp.conj(b) for a, b in zip(zs, ws))
                size = mp.fsum(abs(c) ** 2 for c in zs + ws)
                ref = mp.pi ** (-d) * mp.exp(-size / 2) * mp.fsum(x**j / mp.factorial(j) for j in range(16))
                assert float(abs(mp.mpc(got) / ref - 1)) <= 1e-14


def test_tau0_closed_is_ginibre_at_d1():
    params = ModelParams(d=1, tau=0.0, n=7)
    z, w = 0.8 + 0.3j, -0.2 + 0.5j
    direct = (
        math.exp(-0.5 * (abs(z) ** 2 + abs(w) ** 2))
        / math.pi
        * sum((z * np.conj(w)) ** j / math.factorial(j) for j in range(7))
    )
    assert abs(kernel_tau0_closed_log(params, [z], [w]).value - direct) <= 1e-15 * abs(direct)


def test_tau0_closed_rejects_positive_tau():
    with pytest.raises(UsageError):
        kernel_tau0_closed_log(ModelParams(d=1, tau=0.2, n=4), [0.0], [0.0]).value


def test_rho1_integrates_to_one_by_monte_carlo():
    # Importance-sampled integral of rho1 over C at d = 1, n = 4; the
    # spot checks below confirm rho1_density agrees with the vectorized
    # diagonal used for speed.
    params = ModelParams(d=1, tau=0.0, n=4)
    rng = np.random.default_rng(12)
    m = 200_000
    sigma = math.sqrt(2.5)  # proposal wide enough for the n=4 support
    pts = rng.normal(0, sigma, m) + 1j * rng.normal(0, sigma, m)
    q = np.exp(-np.abs(pts) ** 2 / (2 * sigma**2)) / (2 * math.pi * sigma**2)
    r2 = np.abs(pts) ** 2
    diag = np.exp(-r2) / math.pi * sum(r2**j / math.factorial(j) for j in range(4))
    for i in range(5):
        assert abs(rho1_density(params, [pts[i]]) - diag[i] / 4.0) <= 1e-14
    est = float(np.mean(diag / 4.0 / q))
    assert abs(est - 1.0) <= 5e-3


def test_rho1_point_values():
    for n in (1, 4, 16):
        params = ModelParams(d=1, tau=0.0, n=n)
        assert abs(n * rho1_density(params, [0.0]) - 1.0 / math.pi) <= 1e-14


def test_rho1_density_takes_a_batch_of_points():
    rng = np.random.default_rng(22)
    for d, tau in [(1, 0.0), (2, 0.3), (3, 0.6)]:
        params = ModelParams(d=d, tau=tau, n=7)
        pts = rng.uniform(-2, 2, (5, d)) + 1j * rng.uniform(-2, 2, (5, d))
        got = rho1_density(params, pts)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        assert got.tolist() == [rho1_density(params, p) for p in pts]
    with pytest.raises(UsageError):
        rho1_density(ModelParams(d=2, tau=0.3, n=7), np.zeros((4, 3)))


def test_rho1_nonnegative_on_random_points():
    rng = np.random.default_rng(21)
    params = ModelParams(d=2, tau=0.3, n=6)
    for _ in range(1000):
        z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        assert rho1_density(params, z) >= 0.0


def test_correlation_identical_points_vanishes():
    params = ModelParams(d=2, tau=0.4, n=5)
    z = np.array([0.3 + 0.1j, -0.2j])
    val = correlation_k(params, [z, z])
    assert abs(val) <= 1e-12


def test_correlation_pair_closed_form_n2():
    params = ModelParams(d=2, tau=0.0, n=2)
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        got = correlation_k(params, [z, w])
        zw = complex(np.sum(z * np.conj(w)))
        expect = (
            (np.sum(np.abs(z - w) ** 2) + np.sum(np.abs(z) ** 2) * np.sum(np.abs(w) ** 2) - abs(zw) ** 2)
            * math.exp(-np.sum(np.abs(z) ** 2) - np.sum(np.abs(w) ** 2))
            / math.pi**4
        )
        assert abs(got - expect) <= 1e-12 * max(abs(expect), 1e-6)


def test_correlation_negative_association():
    params = ModelParams(d=1, tau=0.5, n=8)
    rng = np.random.default_rng(41)
    for _ in range(25):
        z = rng.uniform(-1.5, 1.5, 1) + 1j * rng.uniform(-1.5, 1.5, 1)
        w = rng.uniform(-1.5, 1.5, 1) + 1j * rng.uniform(-1.5, 1.5, 1)
        rho2 = correlation_k(params, [z, w])
        bound = kernel_exact(params, z, z).real * kernel_exact(params, w, w).real
        assert rho2 <= bound * (1 + 1e-12)


def test_correlation_rejects_large_k():
    params = ModelParams(d=1, tau=0.0, n=2)
    pts = [[0.1 * k] for k in range(7)]
    with pytest.raises(UsageError):
        correlation_k(params, pts)


def test_correlation_k_six_points():
    params = ModelParams(d=1, tau=0.3, n=12)
    rng = np.random.default_rng(71)
    pts = [rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1) for _ in range(6)]
    val = correlation_k(params, pts)
    assert math.isfinite(val)
    assert val >= -1e-10


def test_hermitian_symmetry():
    rng = np.random.default_rng(51)
    for d, tau, n in [(1, 0.0, 8), (2, 0.3, 6), (3, 0.7, 4)]:
        params = ModelParams(d=d, tau=tau, n=n)
        for _ in range(10):
            z = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
            w = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
            a = kernel_exact(params, z, w)
            b = np.conj(kernel_exact(params, w, z))
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)


def test_positive_semidefiniteness():
    rng = np.random.default_rng(61)
    params = ModelParams(d=2, tau=0.4, n=5)
    for trial in range(5):
        pts = [rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2) for _ in range(4)]
        mat = np.array([[kernel_exact(params, a, b) for b in pts] for a in pts])
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        assert eig.min() >= -1e-10 * np.trace(mat).real


def test_orthonormality_by_gauss_quadrature():
    # 2D Gauss-Hermite grid adapted to the anisotropic weight, j, k <= 6
    for tau in (0.3, 0.7):
        xg, wx = np.polynomial.hermite.hermgauss(60)
        sx = 1.0 / math.sqrt(1.0 - tau)
        sy = 1.0 / math.sqrt(1.0 + tau)
        X, Y = np.meshgrid(xg * sx, xg * sy, indexing="ij")
        W = np.outer(wx, wx) * sx * sy
        Z = X + 1j * Y
        # phi_j on the grid by the normalized recurrence
        c = math.sqrt(1.0 - tau * tau)
        phis = [np.ones_like(Z), c * Z]
        for j in range(1, 7):
            phis.append((c * Z * phis[j] - tau * math.sqrt(j) * phis[j - 1]) / math.sqrt(j + 1))
        # weight ratio: omega(z) e^{x^2/sx^2 + y^2/sy^2} = e^{0} by construction
        pref = math.sqrt(1.0 - tau * tau) / math.pi
        for j in range(7):
            for k in range(7):
                val = pref * np.sum(W * phis[j] * np.conj(phis[k]))
                target = 1.0 if j == k else 0.0
                assert abs(val - target) <= 1e-6


def test_dimension_mismatch_rejected():
    params = ModelParams(d=2, tau=0.0, n=3)
    with pytest.raises(UsageError):
        kernel_exact(params, [1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        kernel_exact(params, [1.0, float("nan")], [1.0, 2.0])


def test_kernel_log_form_tracks_value():
    params = ModelParams(d=1, tau=0.5, n=64)
    z = np.array([8.0 + 1.0j])  # |z| ~ sqrt(n), weights far below double range
    k = kernel_exact_log(params, z, z)
    assert np.isfinite(k.log_mag)
    assert abs(abs(k.phase) - 1.0) <= 1e-12
