"""Pole/Gaussian model integral, conformal-map values, and the
asymptotic formulas for the normalized contour integrals, for every
0 <= tau < 1 (against the s-plane reference of tests/oracles.py too)."""

import cmath
import math

import numpy as np
import pytest

from edgedpp.contour import _invariants_of_hat, _phase_t, _saddle_t, _saddles_t, integral_I_tau
from edgedpp.errors import DomainError
from edgedpp.geometry import edge_point_sample
from edgedpp.kernel import ModelParams
from edgedpp.predictors import normalized_kernel_many
from edgedpp.saddle import (
    _edge_values,
    asymptotic_I_tau,
    delta_pm,
    phi_at_pole,
    phi_lemma_two_term,
    pole_gaussian_integral,
    sinh_ratio,
)
from oracles import (
    asymptotic_I_zero,
    frame_of_invariants,
    ginibre_invariants,
    pair_invariants,
    phi_at_pole_s,
    xi_for_tau,
)


def test_pole_gaussian_low_pole():
    lhs, rhs = pole_gaussian_integral(50, -0.4j, -1.0, 1.0)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_pole_gaussian_complex_pole():
    lhs, rhs = pole_gaussian_integral(200, 0.2 - 0.3j, -1.0, 1.0)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_pole_gaussian_side_flip_adds_full_residue():
    n, p = 80, 0.1 - 0.25j
    lhs, _ = pole_gaussian_integral(n, p, -1.0, 1.0)
    flipped, rhs_flipped = pole_gaussian_integral(n, p, -1.0, 1.0, pole_below_path=False)
    residue = 2j * math.pi * cmath.exp(-n * p * p)
    assert abs((flipped - lhs) - residue) <= 1e-9 * abs(residue)
    assert abs(flipped - rhs_flipped) <= 1e-9 * max(1.0, abs(rhs_flipped))


def test_pole_gaussian_random_sweep():
    # Poles above the axis force the detour through an apex at height
    # Im p + 0.1, whose e^{n apex^2} magnitude sets the rounding floor of
    # the quadrature; below the axis the identity holds to machine
    # precision.
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(30, 300))
        p = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.6, 0.3))
        lhs, rhs = pole_gaussian_integral(n, p, -1.0, 1.0)
        envelope = 10.0 * (math.exp(-n) + math.exp(-n)) / n
        apex = max(0.0, p.imag) + 0.1
        floor = 1e-12 * max(1.0, abs(rhs)) * math.exp(n * apex * apex)
        assert abs(lhs - rhs) <= envelope + floor


def test_pole_gaussian_rejects_endpoint_pole():
    with pytest.raises(DomainError):
        pole_gaussian_integral(50, 0.99, -1.0, 1.0)


def _edge_delta_frame(tau, eta, shape_p, shape_m, n):
    """Invariants of zhat_pm = e_pm + root_pm Delta_pm, Delta_pm = shape_pm/sqrt(n)."""
    (hat_p, hat_m), (root_p, root_m) = _edge_values(tau, eta)
    dp = shape_p / math.sqrt(n)
    dm = shape_m / math.sqrt(n)
    return _invariants_of_hat(tau, hat_p + root_p * dp, hat_m + root_m * dm), dp, dm


def test_phi_branch_invariant():
    tau, eta = 0.45, 0.9
    params = ModelParams(d=2, tau=tau, n=900)
    inv, _, _ = _edge_delta_frame(tau, eta, 0.3 + 0.2j, -0.1 + 0.15j, 900)
    lhs = -phi_at_pole(params, *inv) ** 2
    rhs = _phase_t(tau, *inv[1:], 1.0)[0] - _phase_t(tau, *inv[1:], 1.0 / _saddle_t(tau, *inv))[0]
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-10)


def test_phi_exact_coalescence_is_zero():
    tau = 0.5
    params = ModelParams(d=1, tau=tau, n=64)
    ep = edge_point_sample(params, 5)
    assert phi_at_pole(params, *pair_invariants(ep.z, ep.z)) == 0.0
    assert phi_at_pole(ModelParams(d=1, tau=0.0, n=64), *ginibre_invariants(1.0)) == 0.0


def test_phi_lemma_agreement_rates():
    # series phi(pole) against the printed two-term expansion, the same
    # code at tau = 0 (sigma = sqrt 2) as at tau > 0
    for tau in (0.35, 0.6, 0.0):
        eta = 0.7
        ns = [100, 1000, 10000]
        errs = []
        for n in ns:
            params = ModelParams(d=1, tau=tau, n=n)
            inv, dp, dm = _edge_delta_frame(tau, eta, 0.4 - 0.15j, 0.22 + 0.3j, n)
            a = phi_at_pole(params, *inv)
            b = phi_lemma_two_term(params, eta, dp, dm)
            errs.append(abs(a - b))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope <= -1.2


def test_asymptotic_zero_at_coalescence():
    for n in (64, 256):
        params = ModelParams(d=1, tau=0.0, n=n)
        got = asymptotic_I_zero(params, 0.0)
        want = 0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi * n))
        assert abs(got - want) <= 1e-14
        # the exact value approaches the same number like 1/n
        exact = integral_I_tau(params, *ginibre_invariants(1.0)).value
        assert abs(exact - got) <= 5.0 / n


def test_asymptotic_tau_at_coalescence_value():
    tau, eta, d = 0.5, 0.8, 1
    sig = sinh_ratio(tau, eta)
    for n in (256, 1024):
        params = ModelParams(d=d, tau=tau, n=n)
        got = asymptotic_I_tau(params, eta, 0.0, 0.0)
        want = 0.5 - sig**3 / (12.0 * math.sqrt(math.pi * n))
        assert abs(got - want) <= 1e-14


def test_asymptotic_matches_contour_with_rate():
    # fixed displacement shapes, error ratio between n and 4n in [0.15, 0.45]
    cases = [(0.5, 0.9, 1), (0.4, 0.6, 2), (0.6, 1.2, 3)]
    for tau, eta, d in cases:
        shape_p, shape_m = 0.3 + 0.1j, 0.15 - 0.2j
        errs = []
        for n in (256, 1024):
            params = ModelParams(d=d, tau=tau, n=n)
            inv, dp, dm = _edge_delta_frame(tau, eta, shape_p, shape_m, n)
            exact = integral_I_tau(params, *inv).value
            asym = asymptotic_I_tau(params, eta, dp, dm)
            errs.append(abs(exact - asym))
        ratio = errs[1] / errs[0]
        assert 0.15 <= ratio <= 0.45


def test_asymptotic_zero_matches_contour_with_rate():
    shape = 0.4 - 0.25j
    errs = []
    for n in (256, 1024):
        params = ModelParams(d=2, tau=0.0, n=n)
        delta = shape / math.sqrt(n)
        exact = integral_I_tau(params, *ginibre_invariants(1.0 + delta)).value
        asym = asymptotic_I_zero(params, delta)
        errs.append(abs(exact - asym))
    ratio = errs[1] / errs[0]
    assert 0.15 <= ratio <= 0.45


def test_normal_displacement_specialization():
    # u = v = lambda normal: i sqrt(n) phi = sqrt(2) lam - sigma^3 lam^2/(12 sqrt n)
    lam = 0.6
    tau = 0.5
    errs = []
    ns = [100, 1000, 10000]
    for n in ns:
        params = ModelParams(d=2, tau=tau, n=n)
        ep = edge_point_sample(params, 29)
        sig = sinh_ratio(tau, ep.eta)
        zp = ep.z + lam * ep.normal / math.sqrt(n)
        phi = phi_at_pole(params, *pair_invariants(zp, zp))
        target = math.sqrt(2) * lam / math.sqrt(n) - sig**3 * lam**2 / (12.0 * n)
        errs.append(abs(1j * phi - target))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -1.2


def _s_plane_edge_deltas(tau, eta, z_pm):
    """Delta_pm of an s-plane z_pm pair: (z_pm - sqrt 2 cosh(xi +- i eta)) /
    (sqrt 2 sinh(xi +- i eta)), at the representative nearest the edge values."""
    xi = xi_for_tau(tau)
    hat = [math.sqrt(2) * cmath.cosh(complex(xi, e)) for e in (eta, -eta)]
    root = [math.sqrt(2) * cmath.sinh(complex(xi, e)) for e in (eta, -eta)]
    zp, zm = z_pm
    best = min([(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)], key=lambda c: abs(c[0] - hat[0]) + abs(c[1] - hat[1]))
    return (best[0] - hat[0]) / root[0], (best[1] - hat[1]) / root[1]


@pytest.mark.parametrize("tau", [0.3, 0.5, 0.7, 0.95])
def test_t_plane_phase_saddles_and_phi_are_the_s_plane_ones(tau):
    # on random near-edge pairs: F(t) and its derivatives are tau^k those
    # of the s-plane phase at s = tau t, the four saddles are the s-plane
    # ones over tau, and phi(1) is the s-plane phi(tau)
    rng = np.random.default_rng(int(tau * 100))
    for _ in range(40):
        d, n = int(rng.integers(1, 4)), int(rng.integers(16, 4096))
        params = ModelParams(d=d, tau=tau, n=n)
        ep = edge_point_sample(params, int(rng.integers(2**31)))
        u, v = (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d) for _ in range(2))
        inv = pair_invariants(ep.z + u / math.sqrt(n), ep.z + v / math.sqrt(n))
        frame = frame_of_invariants(params, *inv)
        scale = 1.0 + sum(map(abs, inv))
        t = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)) / tau
        s_plane = [frame.phase.F(tau * t), frame.phase.dF(tau * t), frame.phase.d2F(tau * t), frame.phase.d3F(tau * t)]
        for k, (got, want) in enumerate(zip(_phase_t(tau, *inv[1:], t), s_plane)):
            assert abs(got - tau**k * want) <= 1e-15 * scale * (1.0 + abs(tau**k * want))
        dominant, far, b_t, b_inv_t = _saddles_t(tau, *inv)
        assert abs(tau * dominant - frame.a_inv) <= 1e-13 * abs(frame.a_inv)
        assert abs(tau * far - frame.a) <= 1e-13 * abs(frame.a)
        assert min(abs(tau * b_t - frame.b) + abs(tau * b_inv_t - frame.b_inv),
                   abs(tau * b_t - frame.b_inv) + abs(tau * b_inv_t - frame.b)) <= 1e-13
        # phi^2 is a difference of O(scale) phase values, so phi carries
        # an absolute error of about eps scale / |phi|
        want = phi_at_pole_s(frame)
        assert abs(phi_at_pole(params, *inv) - want) * abs(want) <= 5e-16 * scale
        # displacements and sigma: the t-plane forms against the s-plane ones
        xi = xi_for_tau(tau)
        sig = math.sqrt(math.sinh(2 * xi)) / abs(cmath.sinh(complex(xi, ep.eta)))
        assert abs(sinh_ratio(tau, ep.eta) - sig) <= 1e-14 * sig
        got = delta_pm(params, ep, u, v)
        want = _s_plane_edge_deltas(tau, ep.eta, (frame.z_plus, frame.z_minus))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13


# u = (0.3 + 0.2i) nu and v = -0.4i nu at ten seeded edge points per d
_EXPANSION_U, _EXPANSION_V = 0.3 + 0.2j, -0.4j


def _two_term(params, ep):
    return asymptotic_I_tau(params, ep.eta, *delta_pm(params, ep, _EXPANSION_U * ep.normal, _EXPANSION_V * ep.normal))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_asymptotic_I_tau_is_continuous_as_tau_goes_to_zero(d):
    # one expansion for 0 <= tau < 1: at tau = 0 it stays within 0.1/n of
    # the separate tau = 0 truncation asymptotic_I_zero (0.047/n measured), its error
    # against the exact N falls as 1/n, and tau > 0 moves it by at most
    # 0.1 tau (0.032 tau measured)
    errs = []
    for n in (256, 1024, 4096):
        params = ModelParams(d=d, tau=0.0, n=n)
        rn = math.sqrt(n)
        edges = [edge_point_sample(params, seed) for seed in range(10)]
        us, vs = ([c * ep.normal for ep in edges] for c in (_EXPANSION_U, _EXPANSION_V))
        exact = normalized_kernel_many(params, edges, us, vs)
        worst = 0.0
        for seed, (ep, u, v, samp) in enumerate(zip(edges, us, vs, exact)):
            got = _two_term(params, ep)
            x = pair_invariants(ep.z + u / rn, ep.z + v / rn)[0]
            assert abs(got - asymptotic_I_zero(params, x - 1.0)) <= 0.1 / n
            worst = max(worst, abs(samp.L - got))
            for tau in (1e-3, 1e-6, 1e-12):
                tilted = ModelParams(d=d, tau=tau, n=n)
                assert abs(_two_term(tilted, edge_point_sample(tilted, seed)) - got) <= 0.1 * tau
        errs.append(worst)
    for coarse, fine in zip(errs, errs[1:]):
        assert 0.15 <= fine / coarse <= 0.45
