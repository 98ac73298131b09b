"""Droplet geometry, elliptic coordinates, the zhat_pm map of the pair
invariants, displacement measures, and the saddles in t = s/tau (with
the s-plane frame of tests/oracles.py as their reference)."""

import cmath
import math

import numpy as np
import pytest

from edgedpp.contour import _hat_z, _invariants_of_hat, _phase_t, _saddle_t, _saddles_t
from edgedpp.errors import (
    DegenerateCoordinatesError,
    DegenerateSaddleError,
    DomainError,
)
from edgedpp.geometry import (
    Classification,
    curvature_kappa,
    droplet_classify,
    edge_point,
    edge_point_sample,
    outward_normal,
)
from edgedpp.kernel import ModelParams
from edgedpp.saddle import _edge_values, delta_pm

from oracles import elliptic_coords, pair_invariants, saddle_points, xi_for_tau


def sinh_ratio(tau, eta):
    xi = xi_for_tau(tau)
    return math.sqrt(math.sinh(2 * xi)) / abs(cmath.sinh(complex(xi, eta)))


def orbit_gap(pair, want, norm=sum):
    """Distance of (zhat_+, zhat_-) from want, over its swaps and common signs."""
    zp, zm = pair
    return min(norm((abs(a - want[0]), abs(b - want[1]))) for a, b in [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)])


def test_droplet_classify_cases():
    p = ModelParams(d=3, tau=0.0, n=2)
    assert droplet_classify(p, [0.5, 0.0, 0.0]) is Classification.INSIDE
    assert droplet_classify(p, [2.0, 0.0, 0.0]) is Classification.OUTSIDE
    p5 = ModelParams(d=2, tau=0.5, n=2)
    assert droplet_classify(p5, [math.sqrt(3.0), 0.0]) is Classification.EDGE


def test_edge_point_sample_invariants():
    for d, tau in [(1, 0.3), (2, 0.5), (3, 0.7), (2, 0.0)]:
        params = ModelParams(d=d, tau=tau, n=2)
        for seed in range(20):
            ep = edge_point_sample(params, seed)
            q = (1 - tau) / (1 + tau) * np.sum(ep.z.real**2) + (1 + tau) / (1 - tau) * np.sum(
                ep.z.imag**2
            )
            assert abs(q - 1.0) <= 1e-12
            assert abs(np.linalg.norm(ep.normal) - 1.0) <= 1e-12
            assert droplet_classify(params, ep.z) is Classification.EDGE
            if tau > 0:
                # sqrt(sinh 2 xi) (|Re z| + i |Im z|) = sqrt(2) cosh(xi_tau + i eta)
                xi = xi_for_tau(tau)
                lhs = math.sqrt(math.sinh(2 * xi)) * complex(
                    math.sqrt(np.sum(ep.z.real**2)), math.sqrt(np.sum(ep.z.imag**2))
                )
                rhs = math.sqrt(2) * cmath.cosh(complex(xi, ep.eta))
                assert abs(lhs - rhs) <= 1e-10


def test_edge_point_vertex():
    params = ModelParams(d=2, tau=0.4, n=2)
    e1 = np.array([1.0, 0.0])
    ep = edge_point(params, 0.0, e1, e1)
    assert np.allclose(ep.normal, e1)
    assert abs(ep.z[0] - math.sqrt(1.4 / 0.6)) <= 1e-14


def test_edge_point_d1_explicit_parametrization():
    params = ModelParams(d=1, tau=0.5, n=2)
    theta = math.pi / 4
    ep = edge_point(params, theta, np.array([1.0]), np.array([1.0]))
    a = math.sqrt(1.5 / 0.5)
    expect = a * math.cos(theta) + 1j * math.sin(theta) / a
    assert abs(ep.z[0] - expect) <= 1e-14


def test_outward_normal_sphere_and_vertex():
    z = np.array([0.6, 0.0, 0.8j], dtype=complex)
    nrm = outward_normal(0.0, z)
    assert np.allclose(nrm, z / np.linalg.norm(z))
    v = np.array([math.sqrt(3.0)])
    assert abs(outward_normal(0.5, v)[0] - 1.0) <= 1e-14


def test_outward_normal_is_unit_and_continuous_to_sphere():
    params0 = ModelParams(d=2, tau=1e-6, n=2)
    for seed in range(100):
        ep = edge_point_sample(params0, seed)
        assert abs(np.linalg.norm(ep.normal) - 1.0) <= 1e-12
        sphere = ep.z / np.linalg.norm(ep.z)
        assert np.linalg.norm(ep.normal - sphere) <= 1e-5


def test_outward_normal_rejects_off_edge():
    with pytest.raises(DomainError):
        outward_normal(0.3, np.array([0.1, 0.1j]))


def test_curvature_values():
    # tau = 0: unit sphere, kappa = 1
    params = ModelParams(d=3, tau=0.0, n=2)
    ep = edge_point_sample(params, 3)
    assert abs(curvature_kappa(0.0, ep.z) - 1.0) <= 1e-12
    # d = 1 ellipse vertex and co-vertex
    tau = 0.5
    a = math.sqrt(1.5 / 0.5)
    assert abs(curvature_kappa(tau, [a]) - ((1 + tau) / (1 - tau)) ** 1.5) <= 1e-12
    assert abs(curvature_kappa(tau, [1j / a]) - ((1 - tau) / (1 + tau)) ** 1.5) <= 1e-12


def test_curvature_d1_sinh_identity():
    tau = 0.35
    for eta in (0.2, 0.7, 1.3):
        params = ModelParams(d=1, tau=tau, n=2)
        ep = edge_point(params, eta, np.array([1.0]), np.array([1.0]))
        expect = sinh_ratio(tau, eta) ** 3 / (2 * math.sqrt(2))
        assert abs(ep.kappa - expect) <= 1e-12 * expect


def test_elliptic_coords_round_trip():
    xi, eta = elliptic_coords(math.sqrt(2) * cmath.cosh(0.5 + 0.3j))
    assert abs(xi - 0.5) <= 1e-12 and abs(eta - 0.3) <= 1e-12
    xi, eta = elliptic_coords(math.sqrt(2) * 1.2)
    assert eta == 0.0 and xi > 0
    for zeta in (0.3 + 1.1j, -2.0 + 0.4j, 1.7j):
        xi, eta = elliptic_coords(zeta)
        assert abs(math.sqrt(2) * cmath.cosh(complex(xi, eta)) - zeta) <= 1e-12
        assert xi >= 0 and -math.pi < eta <= math.pi


def test_elliptic_coords_edge_radius_and_focus():
    tau = 0.4
    params = ModelParams(d=2, tau=tau, n=2)
    ep = edge_point_sample(params, 5)
    zeta = math.sqrt(math.sinh(2 * xi_for_tau(tau))) * complex(
        math.sqrt(np.sum(ep.z.real**2)), math.sqrt(np.sum(ep.z.imag**2))
    )
    xi, eta = elliptic_coords(zeta)
    assert abs(xi - xi_for_tau(tau)) <= 1e-10
    with pytest.raises(DegenerateCoordinatesError):
        elliptic_coords(math.sqrt(2.0))


def test_zpm_map_at_edge_without_displacement():
    # the pair (z, z) at a boundary point has zhat_pm = e_pm, for every tau
    for d, tau in [(1, 0.5), (2, 0.3), (3, 0.7), (2, 0.0)]:
        params = ModelParams(d=d, tau=tau, n=16)
        ep = edge_point_sample(params, 7)
        hat = _hat_z(tau, *pair_invariants(ep.z, ep.z))
        assert orbit_gap(hat, _edge_values(tau, ep.eta)[0]) <= 1e-10


def test_zpm_map_d1_formula():
    # d = 1: zhat_+ = sqrt(q/2) z' and zhat_- = sqrt(q/2) conj(w')
    tau, n = 0.4, 25
    z = np.array([0.3 + 0.2j])
    u = np.array([0.5 - 0.1j])
    v = np.array([-0.2 + 0.4j])
    zp, wp = z + u / math.sqrt(n), z + v / math.sqrt(n)
    c = math.sqrt(0.5 * (1 - tau) * (1 + tau))
    hat = _hat_z(tau, *pair_invariants(zp, wp))
    assert orbit_gap(hat, (c * zp[0], c * np.conj(wp[0]))) <= 1e-12


def test_zpm_map_displacement_scale_sweep():
    tau, d = 0.5, 2
    rng = np.random.default_rng(13)
    for n in (100, 400, 1600, 6400):
        params = ModelParams(d=d, tau=tau, n=n)
        ep = edge_point_sample(params, 11)
        u = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        v = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        hat = _hat_z(tau, *pair_invariants(ep.z + u / math.sqrt(n), ep.z + v / math.sqrt(n)))
        assert orbit_gap(hat, _edge_values(tau, ep.eta)[0], norm=max) <= 8.0 / math.sqrt(n)


def test_branch_invariance_of_phase_data():
    # every representative of zhat_pm gives back the invariants, so the
    # phase is the same function of t
    tau = 0.45
    params = ModelParams(d=2, tau=tau, n=36)
    ep = edge_point_sample(params, 9)
    u = np.array([0.2 + 0.1j, -0.3j])
    v = np.array([0.1 - 0.2j, 0.25])
    inv = pair_invariants(ep.z + u / 6.0, ep.z + v / 6.0)
    zp, zm = _hat_z(tau, *inv)
    t = 0.6 + 0.2j
    for rep in [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]:
        back = _invariants_of_hat(tau, *rep)
        assert max(abs(a - b) for a, b in zip(back, inv)) <= 1e-12 * max(map(abs, inv))
        assert abs(_phase_t(tau, *back[1:], t)[0] - _phase_t(tau, *inv[1:], t)[0]) <= 1e-12


def test_delta_pm_zero_and_round_trip():
    for tau in (0.5, 0.0):
        params = ModelParams(d=2, tau=tau, n=64)
        ep = edge_point_sample(params, 15)
        dp, dm = delta_pm(params, ep, np.zeros(2), np.zeros(2))
        assert abs(dp) <= 1e-10 and abs(dm) <= 1e-10
        u = np.array([0.3 - 0.2j, 0.1j])
        v = np.array([-0.1 + 0.4j, 0.2])
        dp, dm = delta_pm(params, ep, u, v)
        (hat_p, hat_m), (root_p, root_m) = _edge_values(tau, ep.eta)
        hat = _hat_z(tau, *pair_invariants(ep.z + u / 8.0, ep.z + v / 8.0))
        assert orbit_gap(hat, (hat_p + root_p * dp, hat_m + root_m * dm)) <= 1e-12


def test_delta_pm_normal_displacement_value():
    # u = v = lambda * normal gives sqrt(n) Delta_pm = sigma lambda / sqrt(2),
    # with sigma -> sqrt(2) at tau = 0
    lam = 0.7
    for d, tau in [(1, 0.5), (2, 0.3), (3, 0.6), (2, 0.0)]:
        n = 400
        params = ModelParams(d=d, tau=tau, n=n)
        ep = edge_point_sample(params, 23)
        u = lam * ep.normal
        sigma = sinh_ratio(tau, ep.eta) if tau else math.sqrt(2)
        target = sigma * lam / math.sqrt(2) / math.sqrt(n)
        for delta in delta_pm(params, ep, u, u):
            assert abs(delta - target) <= 1e-12


def test_saddle_points_focal_coincidence():
    a, a_inv, b, b_inv = saddle_points(math.sqrt(2), math.sqrt(2))
    for s in (a, a_inv, b, b_inv):
        assert abs(s - 1.0) <= 1e-7


def _random_invariants(rng, tau, xi_range, eta_range):
    """(X, Q, P) of zhat_pm = sqrt(2 tau) cosh(xi_pm + i eta_pm) drawn at random, with the (xi, eta) drawn."""
    coords = [complex(rng.uniform(*xi_range), rng.uniform(*eta_range)) for _ in range(2)]
    return _invariants_of_hat(tau, *(math.sqrt(2 * tau) * cmath.cosh(c) for c in coords)), coords


def test_saddle_frame_basic_identities():
    # the saddles in t: 1/(tau a) and tau a/tau^2, b/tau and 1/(tau b)
    # multiply to 1/tau^2, |tau a| >= tau, and F' vanishes at each
    rng = np.random.default_rng(17)
    tau = 0.45
    for _ in range(50):
        inv, _ = _random_invariants(rng, tau, (0.05, 1.2), (-3, 3))
        saddles = _saddles_t(tau, *inv)
        dominant, far, b_t, b_inv_t = saddles
        assert abs(dominant * far * tau * tau - 1.0) <= 1e-12
        assert abs(b_t * b_inv_t * tau * tau - 1.0) <= 1e-12
        assert abs(_saddle_t(tau, *inv)) >= tau * (1.0 - 1e-12)
        f2_scale = abs(_phase_t(tau, *inv[1:], dominant)[2])
        for t in saddles:
            assert abs(_phase_t(tau, *inv[1:], t)[1]) <= 1e-10 * max(f2_scale, 1.0)


def test_saddle_frame_elliptic_formulas():
    # F(t*) and F''(t*) at the dominant saddle against their closed
    # elliptic-coordinate forms (F'' of t is tau^2 that of s = tau t)
    tau = 0.37
    rng = np.random.default_rng(19)
    for _ in range(20):
        inv, (c_p, c_m) = _random_invariants(rng, tau, (0.1, 1.0), (-2.5, 2.5))
        ta = _saddle_t(tau, *inv)
        f, _, f2, _ = _phase_t(tau, *inv[1:], 1.0 / ta)
        f_closed = 1.0 + math.log(tau) + c_p + c_m + 0.5 * cmath.exp(-2 * c_p) + 0.5 * cmath.exp(-2 * c_m)
        # equality modulo 2 pi i from the principal log branch
        diff = (f - f_closed) / (2j * math.pi)
        assert abs(diff - round(diff.real)) <= 1e-11
        f2_closed = 2.0 * ta**2 * cmath.sinh(c_p) * cmath.sinh(c_m) / cmath.sinh(c_p + c_m)
        assert abs(f2 - f2_closed) <= 1e-11 * abs(f2_closed)


def test_saddle_frame_rejects_focal_input():
    tau = 0.5
    inv = _invariants_of_hat(tau, math.sqrt(2 * tau), 1.8 * math.sqrt(tau))
    with pytest.raises(DegenerateSaddleError):
        _saddle_t(tau, *inv)


def _delta_frames(tau, eta, shape_p, shape_m, n):
    """Invariants of zhat_pm = e_pm + root_pm Delta_pm, with Delta_pm = shape_pm/sqrt(n)."""
    (hat_p, hat_m), (root_p, root_m) = _edge_values(tau, eta)
    dp = shape_p / math.sqrt(n)
    dm = shape_m / math.sqrt(n)
    return _invariants_of_hat(tau, hat_p + root_p * dp, hat_m + root_m * dm), dp, dm


def test_saddle_expansion_rates():
    # tau a = 1 + (D+ + D-) + O(1/n), t* = 1/(tau a) = 1 - (D+ + D-) + O(1/n),
    # the refined quadratic expansion of tau a - 1 with O(n^{-3/2})
    # remainder, and b = e^{2 i eta} (1 + D+ - D-) + O(1/n)
    tau, eta = 0.5, 0.8
    shape_p, shape_m = 0.31 + 0.12j, -0.11 + 0.27j
    xi = xi_for_tau(tau)
    ns = [100, 1000, 10000]
    err_lead, err_quad, err_b = [], [], []
    for n in ns:
        inv, dp, dm = _delta_frames(tau, eta, shape_p, shape_m, n)
        dominant, _, b_t, b_inv_t = _saddles_t(tau, *inv)
        ta = _saddle_t(tau, *inv)
        err_lead.append(abs(ta - (1 + dp + dm)) + abs(dominant - (1 - dp - dm)))
        quad = (
            dp
            + dm
            + 0.5 * (dp + dm) ** 2
            - 0.5 / cmath.tanh(complex(xi, eta)) * dp**2
            - 0.5 / cmath.tanh(complex(xi, -eta)) * dm**2
        )
        err_quad.append(abs(ta - 1 - quad))
        want_b = cmath.exp(2j * eta) * (1 + dp - dm)
        err_b.append(min(abs(tau * b_t - want_b), abs(tau * b_inv_t - want_b)))  # b or 1/b
    lead_slope = np.polyfit(np.log(ns), np.log(err_lead), 1)[0]
    quad_slope = np.polyfit(np.log(ns), np.log(err_quad), 1)[0]
    b_slope = np.polyfit(np.log(ns), np.log(err_b), 1)[0]
    assert abs(lead_slope - (-1.0)) <= 0.15
    assert abs(quad_slope - (-1.5)) <= 0.2
    assert abs(b_slope - (-1.0)) <= 0.15


def test_f2_delta_expansion():
    # (1/2) t*^2 F''(t*), which is (1/2) a^{-2} F''(1/a) of the s plane,
    # against its first-order displacement expansion
    tau, eta = 0.4, 1.1
    xi = xi_for_tau(tau)
    errs = []
    ns = [100, 1000, 10000]
    for n in ns:
        inv, dp, dm = _delta_frames(tau, eta, 0.4 - 0.1j, 0.2 + 0.3j, n)
        dominant = 1.0 / _saddle_t(tau, *inv)
        got = 0.5 * dominant**2 * _phase_t(tau, *inv[1:], dominant)[2]
        base = abs(cmath.sinh(complex(xi, eta))) ** 2 / math.sinh(2 * xi)
        expand = base * (
            1.0
            + dp / cmath.tanh(complex(xi, eta))
            + dm / cmath.tanh(complex(xi, -eta))
            - (dp + dm) / math.tanh(2 * xi)
        )
        errs.append(abs(got - expand))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope - (-1.0)) <= 0.15
