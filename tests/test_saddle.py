"""Pole/Gaussian model integral, conformal-map values, and the
asymptotic formulas for the normalized contour integrals."""

import cmath
import math

import numpy as np
import pytest

from edgedpp.contour import integral_I_tau
from edgedpp.errors import DomainError
from edgedpp.geometry import edge_point_sample, saddle_frame, xi_for_tau, zpm_map
from edgedpp.kernel import ModelParams
from edgedpp.saddle import (
    asymptotic_I_tau,
    asymptotic_I_zero,
    phi_at_pole,
    phi_at_pole_tau0,
    phi_lemma_two_term,
    phi_lemma_two_term_tau0,
    pole_gaussian_integral,
    sinh_ratio,
)
from oracles import ginibre_invariants, zpm_invariants


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
    xi = xi_for_tau(tau)
    hat_p = math.sqrt(2) * cmath.cosh(complex(xi, eta))
    hat_m = math.sqrt(2) * cmath.cosh(complex(xi, -eta))
    dp = shape_p / math.sqrt(n)
    dm = shape_m / math.sqrt(n)
    zp = hat_p + math.sqrt(2) * cmath.sinh(complex(xi, eta)) * dp
    zm = hat_m + math.sqrt(2) * cmath.sinh(complex(xi, -eta)) * dm
    return zp, zm, dp, dm


def test_phi_branch_invariant():
    tau, eta = 0.45, 0.9
    params = ModelParams(d=2, tau=tau, n=900)
    zp, zm, _, _ = _edge_delta_frame(tau, eta, 0.3 + 0.2j, -0.1 + 0.15j, 900)
    fr = saddle_frame(params, zp, zm)
    lhs = -phi_at_pole(params, fr) ** 2
    rhs = complex(fr.phase.F(tau)) - fr.F_at_a_inv
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-10)


def test_phi_exact_coalescence_is_zero():
    tau = 0.5
    params = ModelParams(d=1, tau=tau, n=64)
    ep = edge_point_sample(params, 5)
    zp, zm = zpm_map(params, ep.z, np.zeros(1), np.zeros(1))
    fr = saddle_frame(params, zp, zm)
    assert phi_at_pole(params, fr) == 0.0
    assert phi_at_pole_tau0(ModelParams(d=1, tau=0.0, n=64), 1.0) == 0.0


def test_phi_lemma_agreement_rates():
    # series phi(pole) against the printed two-term expansions
    for tau in (0.35, 0.6):
        eta = 0.7
        ns = [100, 1000, 10000]
        errs = []
        for n in ns:
            params = ModelParams(d=1, tau=tau, n=n)
            zp, zm, dp, dm = _edge_delta_frame(tau, eta, 0.4 - 0.15j, 0.22 + 0.3j, n)
            fr = saddle_frame(params, zp, zm)
            a = phi_at_pole(params, fr)
            b = phi_lemma_two_term(params, eta, dp, dm)
            errs.append(abs(a - b))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope <= -1.2
    # tau = 0 analogue
    errs = []
    ns = [100, 1000, 10000]
    for n in ns:
        params = ModelParams(d=1, tau=0.0, n=n)
        delta = (0.35 + 0.2j) / math.sqrt(n)
        a = phi_at_pole_tau0(params, 1.0 + delta)
        b = phi_lemma_two_term_tau0(delta)
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
            zp, zm, dp, dm = _edge_delta_frame(tau, eta, shape_p, shape_m, n)
            exact = integral_I_tau(params, *zpm_invariants(tau, zp, zm)).value
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
        u = lam * ep.normal
        zp, zm = zpm_map(params, ep.z, u, u)
        fr = saddle_frame(params, zp, zm)
        phi = phi_at_pole(params, fr)
        target = math.sqrt(2) * lam / math.sqrt(n) - sig**3 * lam**2 / (12.0 * n)
        errs.append(abs(1j * phi - target))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -1.2
