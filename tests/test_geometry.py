"""Droplet geometry, elliptic coordinates, z_pm map, displacement
measures, and the saddle frame."""

import cmath
import math

import numpy as np
import pytest

from edgedpp.errors import (
    DegenerateCoordinatesError,
    DegenerateSaddleError,
    DomainError,
)
from edgedpp.geometry import (
    Classification,
    curvature_kappa,
    delta_pm,
    droplet_classify,
    edge_point,
    edge_point_sample,
    outward_normal,
    saddle_frame,
    saddle_points,
    xi_for_tau,
    zpm_map,
)
from edgedpp.kernel import ModelParams

from oracles import elliptic_coords


def sinh_ratio(tau, eta):
    xi = xi_for_tau(tau)
    return math.sqrt(math.sinh(2 * xi)) / abs(cmath.sinh(complex(xi, eta)))


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
    for d, tau in [(1, 0.5), (2, 0.3), (3, 0.7)]:
        params = ModelParams(d=d, tau=tau, n=16)
        ep = edge_point_sample(params, 7)
        zp, zm = zpm_map(params, ep.z, np.zeros(d), np.zeros(d))
        xi = xi_for_tau(tau)
        hat_p = math.sqrt(2) * cmath.cosh(complex(xi, ep.eta))
        hat_m = math.sqrt(2) * cmath.cosh(complex(xi, -ep.eta))
        orbit = [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]
        best = min(abs(a - hat_p) + abs(b - hat_m) for a, b in orbit)
        assert best <= 1e-10


def test_zpm_map_d1_formula():
    tau, n = 0.4, 25
    params = ModelParams(d=1, tau=tau, n=n)
    z = np.array([0.3 + 0.2j])
    u = np.array([0.5 - 0.1j])
    v = np.array([-0.2 + 0.4j])
    zp, zm = zpm_map(params, z, u, v)
    c = math.sqrt(math.sinh(2 * xi_for_tau(tau)))
    want_p = c * (z[0] + u[0] / math.sqrt(n))
    want_m = c * np.conj(z[0] + v[0] / math.sqrt(n))
    orbit = [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]
    assert min(abs(a - want_p) + abs(b - want_m) for a, b in orbit) <= 1e-12


def test_zpm_map_displacement_scale_sweep():
    tau, d = 0.5, 2
    rng = np.random.default_rng(13)
    for n in (100, 400, 1600, 6400):
        params = ModelParams(d=d, tau=tau, n=n)
        ep = edge_point_sample(params, 11)
        u = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        v = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        zp, zm = zpm_map(params, ep.z, u, v)
        xi = xi_for_tau(tau)
        hat_p = math.sqrt(2) * cmath.cosh(complex(xi, ep.eta))
        hat_m = math.sqrt(2) * cmath.cosh(complex(xi, -ep.eta))
        orbit = [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]
        gap = min(max(abs(a - hat_p), abs(b - hat_m)) for a, b in orbit)
        assert gap <= 8.0 / math.sqrt(n)


def test_branch_invariance_of_phase_data():
    # the orbit representatives produce identical phase functions
    params = ModelParams(d=2, tau=0.45, n=36)
    ep = edge_point_sample(params, 9)
    u = np.array([0.2 + 0.1j, -0.3j])
    v = np.array([0.1 - 0.2j, 0.25])
    zp, zm = zpm_map(params, ep.z, u, v)
    f1 = saddle_frame(params, zp, zm)
    f2 = saddle_frame(params, -zm, -zp)
    s = 0.3 + 0.1j
    assert abs(complex(f1.phase.F(s)) - complex(f2.phase.F(s))) <= 1e-12
    assert abs((zp + zm) ** 2 - (f2.z_plus + f2.z_minus) ** 2) <= 1e-12
    assert abs((zp - zm) ** 2 - (f2.z_plus - f2.z_minus) ** 2) <= 1e-12


def test_delta_pm_zero_and_round_trip():
    tau = 0.5
    params = ModelParams(d=2, tau=tau, n=64)
    ep = edge_point_sample(params, 15)
    zp, zm = zpm_map(params, ep.z, np.zeros(2), np.zeros(2))
    dd = delta_pm(params, (zp, zm), ep)
    assert abs(dd.delta_plus) <= 1e-10 and abs(dd.delta_minus) <= 1e-10
    u = np.array([0.3 - 0.2j, 0.1j])
    v = np.array([-0.1 + 0.4j, 0.2])
    zp, zm = zpm_map(params, ep.z, u, v)
    dd = delta_pm(params, (zp, zm), ep)
    xi = xi_for_tau(tau)
    hat_p = math.sqrt(2) * cmath.cosh(complex(xi, ep.eta))
    hat_m = math.sqrt(2) * cmath.cosh(complex(xi, -ep.eta))
    rec_p = hat_p + cmath.sqrt(hat_p**2 - 2) * dd.delta_plus
    rec_m = hat_m + cmath.sqrt(hat_m**2 - 2) * dd.delta_minus
    orbit = [(zp, zm), (zm, zp), (-zp, -zm), (-zm, -zp)]
    assert min(abs(a - rec_p) + abs(b - rec_m) for a, b in orbit) <= 1e-12


def test_delta_pm_normal_displacement_value():
    # u = v = lambda * normal gives sqrt(n) Delta_pm = sigma lambda / sqrt(2)
    lam = 0.7
    for d, tau in [(1, 0.5), (2, 0.3), (3, 0.6)]:
        n = 400
        params = ModelParams(d=d, tau=tau, n=n)
        ep = edge_point_sample(params, 23)
        u = lam * ep.normal
        zp, zm = zpm_map(params, ep.z, u, u)
        dd = delta_pm(params, (zp, zm), ep)
        target = sinh_ratio(tau, ep.eta) * lam / math.sqrt(2) / math.sqrt(n)
        assert abs(dd.delta_plus - target) <= 1e-12
        assert abs(dd.delta_minus - target) <= 1e-12


def test_saddle_points_focal_coincidence():
    a, a_inv, b, b_inv = saddle_points(math.sqrt(2), math.sqrt(2))
    for s in (a, a_inv, b, b_inv):
        assert abs(s - 1.0) <= 1e-7


def test_saddle_frame_basic_identities():
    rng = np.random.default_rng(17)
    params = ModelParams(d=1, tau=0.45, n=2)
    for _ in range(50):
        zp = math.sqrt(2) * cmath.cosh(complex(rng.uniform(0.05, 1.2), rng.uniform(-3, 3)))
        zm = math.sqrt(2) * cmath.cosh(complex(rng.uniform(0.05, 1.2), rng.uniform(-3, 3)))
        fr = saddle_frame(params, zp, zm)
        assert abs(fr.a * fr.a_inv - 1.0) <= 1e-12
        assert abs(fr.b * fr.b_inv - 1.0) <= 1e-12
        assert abs(fr.a) >= 1.0 - 1e-12
        f2_scale = abs(fr.F2_at_a_inv)
        for s in fr.saddles:
            assert abs(complex(fr.phase.dF(s))) <= 1e-10 * max(f2_scale, 1.0)


def test_saddle_frame_elliptic_formulas():
    # F(1/a) and F''(1/a) against their closed elliptic-coordinate forms
    params = ModelParams(d=1, tau=0.37, n=5)
    rng = np.random.default_rng(19)
    for _ in range(20):
        xi_p, xi_m = rng.uniform(0.1, 1.0, 2)
        eta_p, eta_m = rng.uniform(-2.5, 2.5, 2)
        zp = math.sqrt(2) * cmath.cosh(complex(xi_p, eta_p))
        zm = math.sqrt(2) * cmath.cosh(complex(xi_m, eta_m))
        fr = saddle_frame(params, zp, zm)
        tau = params.tau
        f_closed = (
            1.0
            + math.log(tau)
            + xi_p
            + xi_m
            + 1j * (eta_p + eta_m)
            + 0.5 * cmath.exp(-2 * complex(xi_p, eta_p))
            + 0.5 * cmath.exp(-2 * complex(xi_m, eta_m))
        )
        # equality modulo 2 pi i from the principal log branch
        diff = (fr.F_at_a_inv - f_closed) / (2j * math.pi)
        assert abs(diff - round(diff.real)) <= 1e-11
        f2_closed = (
            2.0
            * fr.a**2
            * cmath.sinh(complex(xi_p, eta_p))
            * cmath.sinh(complex(xi_m, eta_m))
            / cmath.sinh(complex(xi_p + xi_m, eta_p + eta_m))
        )
        assert abs(fr.F2_at_a_inv - f2_closed) <= 1e-11 * abs(f2_closed)


def test_saddle_frame_rejects_focal_input():
    params = ModelParams(d=1, tau=0.5, n=2)
    with pytest.raises(DegenerateSaddleError):
        saddle_frame(params, math.sqrt(2), 1.8)


def _delta_frames(tau, eta, shape_p, shape_m, n):
    xi = xi_for_tau(tau)
    hat_p = math.sqrt(2) * cmath.cosh(complex(xi, eta))
    hat_m = math.sqrt(2) * cmath.cosh(complex(xi, -eta))
    dp = shape_p / math.sqrt(n)
    dm = shape_m / math.sqrt(n)
    zp = hat_p + math.sqrt(2) * cmath.sinh(complex(xi, eta)) * dp
    zm = hat_m + math.sqrt(2) * cmath.sinh(complex(xi, -eta)) * dm
    return zp, zm, dp, dm


def test_saddle_expansion_rates():
    # a^{+-1} = tau^{-+1} (1 +- (D+ + D-)) + O(1/n) and the refined
    # quadratic expansion of tau a - 1 with O(n^{-3/2}) remainder
    tau, eta = 0.5, 0.8
    shape_p, shape_m = 0.31 + 0.12j, -0.11 + 0.27j
    xi = xi_for_tau(tau)
    params = ModelParams(d=1, tau=tau, n=2)
    ns = [100, 1000, 10000]
    err_lead, err_quad, err_b = [], [], []
    for n in ns:
        zp, zm, dp, dm = _delta_frames(tau, eta, shape_p, shape_m, n)
        fr = saddle_frame(params, zp, zm)
        err_lead.append(
            abs(fr.a - (1 + dp + dm) / tau) + abs(fr.a_inv - tau * (1 - dp - dm))
        )
        quad = (
            dp
            + dm
            + 0.5 * (dp + dm) ** 2
            - 0.5 / cmath.tanh(complex(xi, eta)) * dp**2
            - 0.5 / cmath.tanh(complex(xi, -eta)) * dm**2
        )
        err_quad.append(abs(tau * fr.a - 1 - quad))
        want_b = cmath.exp(2j * eta) * (1 + dp - dm)
        err_b.append(min(abs(fr.b - want_b), abs(fr.b_inv - want_b)))
    lead_slope = np.polyfit(np.log(ns), np.log(err_lead), 1)[0]
    quad_slope = np.polyfit(np.log(ns), np.log(err_quad), 1)[0]
    b_slope = np.polyfit(np.log(ns), np.log(err_b), 1)[0]
    assert abs(lead_slope - (-1.0)) <= 0.15
    assert abs(quad_slope - (-1.5)) <= 0.2
    assert abs(b_slope - (-1.0)) <= 0.15


def test_f2_delta_expansion():
    # (1/2) a^{-2} F''(1/a) against its first-order displacement expansion
    tau, eta = 0.4, 1.1
    xi = xi_for_tau(tau)
    params = ModelParams(d=1, tau=tau, n=2)
    errs = []
    ns = [100, 1000, 10000]
    for n in ns:
        zp, zm, dp, dm = _delta_frames(tau, eta, 0.4 - 0.1j, 0.2 + 0.3j, n)
        fr = saddle_frame(params, zp, zm)
        got = 0.5 * fr.a_inv**2 * fr.F2_at_a_inv
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
