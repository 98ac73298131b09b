"""Edge predictors: cofactors, the normalized kernel, the erfc density
profile, the Faddeeva plasma kernel, the bulk limit, and the two-term
kernel expansion at normal displacements."""

import cmath
import math

import numpy as np
import pytest

from edgedpp import predictors
from edgedpp.contour import ContourConfig
from edgedpp.errors import ConsistencyError, QuadratureError
from edgedpp.geometry import edge_point_sample
from edgedpp.kernel import ModelParams, rho1_density, truncated_exp_series
from edgedpp.predictors import (
    bulk_prediction,
    cofactor_cn,
    edge_density_terms,
    edge_kernel_prediction,
    normalized_kernel,
    normalized_kernel_many,
)
from edgedpp.saddle import asymptotic_I_tau, delta_pm


def _density_prediction(params, ep, lam):
    """The two-term edge density profile, the sum of edge_density_terms."""
    lead, second = edge_density_terms(params, ep, lam)
    return lead + second


def test_cofactor_unimodular_and_trivial_cases():
    rng = np.random.default_rng(2)
    for d, tau in [(1, 0.0), (2, 0.5), (3, 0.7)]:
        params = ModelParams(d=d, tau=tau, n=64)
        ep = edge_point_sample(params, 3)
        for _ in range(20):
            u = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
            c = cofactor_cn(tau, 64, ep.z, u)
            assert abs(abs(c) - 1.0) <= 1e-14
        assert cofactor_cn(tau, 64, ep.z, np.zeros(d)) == 1.0


def test_cofactor_cancels_on_diagonal():
    params = ModelParams(d=2, tau=0.5, n=32)
    ep = edge_point_sample(params, 7)
    u = np.array([0.3 - 0.2j, 0.4j])
    c = cofactor_cn(0.5, 32, ep.z, u)
    assert abs(c * np.conj(c) - 1.0) <= 1e-15


def test_normalized_kernel_routes_agree():
    rng = np.random.default_rng(5)
    for d, tau in [(1, 0.5), (2, 0.0), (2, 0.6), (3, 0.3)]:
        params = ModelParams(d=d, tau=tau, n=128)
        ep = edge_point_sample(params, 11)
        u = rng.uniform(-0.7, 0.7, d) + 1j * rng.uniform(-0.7, 0.7, d)
        v = rng.uniform(-0.7, 0.7, d) + 1j * rng.uniform(-0.7, 0.7, d)
        samp = normalized_kernel(params, ep, u, v)
        assert samp.route_gap <= 1e-9


def test_normalized_kernel_many_is_normalized_kernel_per_triple():
    rng = np.random.default_rng(6)
    for d, tau in [(1, 0.5), (2, 0.0), (3, 0.3)]:
        params = ModelParams(d=d, tau=tau, n=256)
        edges = [edge_point_sample(params, seed) for seed in (1, 2, 3)]
        us = [rng.uniform(-0.7, 0.7, d) + 1j * rng.uniform(-0.7, 0.7, d) for _ in edges]
        vs = [np.zeros(d), us[1], rng.uniform(-0.7, 0.7, d) + 1j * rng.uniform(-0.7, 0.7, d)]
        got = normalized_kernel_many(params, edges, us, vs)
        for samp, ep, u, v in zip(got, edges, us, vs):
            one = normalized_kernel(params, ep, u, v)
            assert (samp.L, samp.route_gap) == (one.L, one.route_gap)
            assert samp.z is ep and np.array_equal(samp.u, u) and np.array_equal(samp.v, v)


def test_normalized_kernel_diagonal_limits():
    for d, tau in [(1, 0.0), (2, 0.5)]:
        gaps = []
        for n in (64, 256, 1024):
            params = ModelParams(d=d, tau=tau, n=n)
            ep = edge_point_sample(params, 13)
            samp = normalized_kernel(params, ep, np.zeros(d), np.zeros(d))
            assert abs(samp.L.imag) <= 1e-9
            gaps.append(abs(samp.L - 0.5))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.05


def test_normalized_kernel_hermitian_symmetry():
    params = ModelParams(d=2, tau=0.4, n=64)
    ep = edge_point_sample(params, 17)
    u = np.array([0.2 + 0.3j, -0.1j])
    v = np.array([-0.4j, 0.15 + 0.2j])
    a = normalized_kernel(params, ep, u, v).L
    b = normalized_kernel(params, ep, v, u).L
    assert abs(a - np.conj(b)) <= 1e-10 * max(abs(a), 1e-6)


def test_normalized_kernel_reduces_to_ginibre_edge_law():
    # d = 1, tau = 0: the normalized kernel equals the ratio of the
    # truncated exponential to the full one, computed independently
    n = 400
    params = ModelParams(d=1, tau=0.0, n=n)
    ep = edge_point_sample(params, 19)
    u = np.array([0.3 + 0.2j])
    v = np.array([-0.25 + 0.1j])
    samp = normalized_kernel(params, ep, u, v)
    zeta = complex((ep.z[0] + u[0] / math.sqrt(n)) * np.conj(ep.z[0] + v[0] / math.sqrt(n)))
    series = truncated_exp_series(n * zeta, n)
    ref = series.value * cmath.exp(-n * zeta)
    assert abs(samp.L - ref) <= 1e-10 * max(abs(ref), 1e-6)


def test_edge_kernel_prediction_values():
    params = ModelParams(d=2, tau=0.3, n=16)
    ep = edge_point_sample(params, 23)
    assert abs(edge_kernel_prediction(ep, np.zeros(2), np.zeros(2)) - 0.5) <= 1e-15
    lam = 0.8
    val = edge_kernel_prediction(ep, lam * ep.normal, lam * ep.normal)
    from edgedpp.special import erfc_complex

    assert abs(val - 0.5 * erfc_complex(math.sqrt(2) * lam)) <= 1e-13
    big = edge_kernel_prediction(ep, 6.0 * ep.normal, 6.0 * ep.normal)
    assert abs(big) <= 1e-14
    neg = edge_kernel_prediction(ep, -6.0 * ep.normal, -6.0 * ep.normal)
    assert abs(neg - 1.0) <= 1e-14


def test_edge_density_prediction_origin_and_tails():
    params = ModelParams(d=2, tau=0.0, n=1024)
    ep = edge_point_sample(params, 29)
    want = 2.0 / (2.0 * math.pi**2) - 1.0 * 2.0 / (
        3.0 * math.pi**2 * math.sqrt(2.0 * math.pi) * math.sqrt(1024)
    )
    assert abs(_density_prediction(params, ep, 0.0) - want) <= 1e-14
    assert _density_prediction(params, ep, 8.0) <= 1e-20


def test_edge_density_prediction_matches_exact_kernel():
    for d, tau in [(1, 0.0), (1, 0.5), (2, 0.5)]:
        n = 1024
        params = ModelParams(d=d, tau=tau, n=n)
        ep = edge_point_sample(params, 31)
        rn = math.sqrt(n)
        for lam in (-0.5, 0.0, 0.75):
            val = n**d * rho1_density(params, rn * ep.z + lam * ep.normal)
            pred = _density_prediction(params, ep, lam)
            second = edge_density_terms(params, ep, lam)[1]
            assert abs(val - pred) <= 0.35 * max(abs(second), 1e-4)


def test_bulk_prediction_values():
    assert abs(bulk_prediction(2, np.zeros(2), np.zeros(2)) - math.pi**-2) <= 1e-16
    u = np.array([0.4 + 0.2j, -0.3j])
    assert abs(bulk_prediction(2, u, u) - math.pi**-2) <= 1e-16
    rng = np.random.default_rng(37)
    for _ in range(20):
        a = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        assert abs(bulk_prediction(2, a, b)) <= math.pi**-2 + 1e-15


def _two_term_at_normal(params, ep, u, v):
    """asymptotic_I_tau at the displacements u nu, v nu of the boundary point ep."""
    return asymptotic_I_tau(params, ep.eta, *delta_pm(params, ep, u * ep.normal, v * ep.normal))


def test_d1_refined_symmetry():
    params = ModelParams(d=1, tau=0.4, n=256)
    ep = edge_point_sample(params, 43)
    u, v = 0.3 + 0.1j, -0.2j
    a = _two_term_at_normal(params, ep, u, v)
    b = _two_term_at_normal(params, ep, v, u)
    assert abs(a - np.conj(b)) <= 1e-14


def test_d1_refined_diagonal_matches_density_profile():
    # at u = v = lambda nu the normalized kernel is pi K (the Gaussian
    # normalizer is pi), and the two-term expansion carries the same two
    # terms as the density profile (d = 1, where n rho_1 = K exactly)
    tau, n = 0.45, 2048
    params = ModelParams(d=1, tau=tau, n=n)
    ep = edge_point_sample(params, 47)
    rng = np.random.default_rng(48)
    for lam in [0.0, *rng.uniform(-1.2, 1.2, 10)]:
        kernel_pred = _two_term_at_normal(params, ep, lam, lam).real / math.pi
        dens_pred = _density_prediction(params, ep, float(lam))
        assert abs(kernel_pred - dens_pred) <= 1e-13


def test_edge_kernel_residual_uniform_over_boundary():
    # dense sweep of the elliptic angle at fixed n: the sqrt(n)-scaled
    # residual stays bounded along the whole boundary arc
    from edgedpp.geometry import edge_point

    tau, n = 0.5, 256
    params = ModelParams(d=1, tau=tau, n=n)
    u = np.array([0.4 + 0.2j])
    v = np.array([-0.3 + 0.1j])
    worst = 0.0
    for eta in np.linspace(0.02, math.pi / 2 - 0.02, 50):
        ep = edge_point(params, float(eta), np.array([1.0]), np.array([1.0]))
        samp = normalized_kernel(params, ep, u, v)
        pred = edge_kernel_prediction(ep, u, v)
        worst = max(worst, abs(samp.L - pred) * math.sqrt(n))
    assert worst <= 2.0


def test_kernel_tau_to_zero_continuity():
    # the tau = 0 kernel is the tau -> 0 limit of the Hermite form
    from edgedpp.kernel import kernel_exact, kernel_tau0_closed_log

    rng = np.random.default_rng(59)
    z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    tiny = kernel_exact(ModelParams(d=2, tau=1e-8, n=6), z, w)
    zero = kernel_tau0_closed_log(ModelParams(d=2, tau=0.0, n=6), z, w).value
    assert abs(tiny - zero) <= 1e-6 * abs(zero)


def test_contour_kernel_tau_to_zero_continuity():
    # the same limit through the contour route: near tau = 0 the circle
    # radius is about tau, and the pole guard scales with it
    from edgedpp.contour import kernel_via_contour_log
    from edgedpp.kernel import kernel_tau0_closed_log

    rng = np.random.default_rng(59)
    z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    zero = kernel_tau0_closed_log(ModelParams(d=2, tau=0.0, n=6), z, w).value
    for tau in (1e-4, 1e-6, 1e-8):
        tiny = kernel_via_contour_log(ModelParams(d=2, tau=tau, n=6), z / math.sqrt(6), w / math.sqrt(6))
        assert abs(tiny.value - zero) <= 100.0 * tau * abs(zero)


def test_normalized_kernel_near_tau_zero_is_not_refused():
    # tau = 1e-3 puts the saddle circle near |s| = tau; both routes must
    # answer and agree
    worst = 0.0
    for d in (1, 2):
        for n in (64, 256):
            params = ModelParams(d=d, tau=1e-3, n=n)
            for seed in range(5):
                rng = np.random.default_rng(seed)
                u = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                v = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
                u *= 0.8 / np.linalg.norm(u)
                v *= 0.6 / np.linalg.norm(v)
                sample = normalized_kernel(params, edge_point_sample(params, seed), u, v)
                worst = max(worst, sample.route_gap)
    assert worst <= 1e-8


def test_normalized_kernel_many_raises_route_b_errors(monkeypatch):
    # route B's refusals and a route gap past _ROUTE_GAP_TOL both raise
    params = ModelParams(d=2, tau=0.5, n=256)
    edges = [edge_point_sample(params, seed) for seed in (1, 2)]
    us = [np.array([0.3 + 0.2j, -0.1j]), np.zeros(2)]
    vs = [np.array([-0.2j, 0.1 + 0.1j]), np.array([0.4, 0.2j])]
    with pytest.raises(QuadratureError, match="did not converge"):
        normalized_kernel_many(params, edges, us, vs, ContourConfig(tolerance=1e-300, max_doublings=1))
    monkeypatch.setattr(predictors, "_ROUTE_GAP_TOL", 0.0)
    with pytest.raises(ConsistencyError, match="routes disagree"):
        normalized_kernel_many(params, edges, us, vs)
