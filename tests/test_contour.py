"""Contour quadrature of the single-integral kernel representations."""

import collections
import functools
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgedpp import contour
from edgedpp.contour import (
    ContourConfig,
    _quadrature,
    _trapezoid_nodes,
    integral_I_tau,
    kernel_via_contour_log,
    kernel_via_contour_log_many,
    max_principle_check,
    normalized_integral_many,
)
from edgedpp.errors import ContourError, DomainError, EdgeDppError, QuadratureError, UsageError
from edgedpp.geometry import edge_point_sample
from edgedpp.harness import default_spec, run_experiment
from edgedpp.kernel import ModelParams, kernel_exact_log, kernel_exact_log_many
from edgedpp.special import LogMagnitudePhase, stable_sum_arrays
from oracles import (
    frame_of_invariants,
    ginibre_invariants,
    integral_I_zero_closed,
    node_pass_all_nodes,
    pair_invariants,
    phase_at_pole,
    quadrature_reference,
    quadrature_tau_complex,
    quadrature_zero_complex,
)

EPS = 2.0**-52


def edge_invariants(params, seed):
    """(X, Q, P) of the pair (z, z) at a seeded edge point z."""
    z = edge_point_sample(params, seed).z
    return pair_invariants(z, z)


def integral_zero(params, zeta, config=ContourConfig(), include_residue=True):
    """The tau = 0 integral of the phase zeta t."""
    return integral_I_tau(params, *ginibre_invariants(zeta), config, include_residue)


def test_integral_zero_matches_partial_sum():
    rng = np.random.default_rng(2)
    for n in (2, 4, 8, 16, 32):
        params = ModelParams(d=2, tau=0.0, n=n)
        for _ in range(5):
            zeta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            if abs(zeta) < 0.05:
                continue
            quad = integral_zero(params, zeta)
            closed = integral_I_zero_closed(params, zeta)
            assert abs(quad.ratio_to(closed) - 1.0) <= 1e-10


def test_integral_zero_single_term():
    params = ModelParams(d=1, tau=0.0, n=1)
    for zeta in (0.7, 1.3 - 0.4j):
        # I_{1,0} = 1, so N_0 = e^{-zeta}
        val = integral_zero(params, zeta)
        assert abs(val.value - np.exp(-zeta)) <= 1e-12 * abs(np.exp(-zeta))
    assert integral_zero(params, 0.0).value == 1.0


def test_integral_zero_edge_tends_to_half():
    prev_gap = None
    for n in (64, 256, 1024):
        params = ModelParams(d=1, tau=0.0, n=n)
        val = integral_zero(params, 1.0).value
        gap = abs(val - 0.5)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap <= 0.02


def test_integral_tau_edge_and_bulk_values():
    params = ModelParams(d=1, tau=0.5, n=1024)
    val = integral_I_tau(params, *edge_invariants(params, 3)).value
    assert abs(val - 0.5) <= 0.05
    # deep bulk: N -> 1
    ep = edge_point_sample(params, 4)
    inv = pair_invariants(0.3 * ep.z, 0.3 * ep.z)
    assert abs(integral_I_tau(params, *inv).value - 1.0) <= 1e-10


def test_kernel_representation_small_grid():
    rng = np.random.default_rng(8)
    for d in (1, 2):
        for tau in (0.3, 0.7):
            for n in (2, 8, 16):
                params = ModelParams(d=d, tau=tau, n=n)
                for _ in range(5):
                    big_z = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
                    big_w = rng.uniform(-1.5, 1.5, d) + 1j * rng.uniform(-1.5, 1.5, d)
                    exact = kernel_exact_log(params, big_z, big_w)
                    rn = math.sqrt(n)
                    via = kernel_via_contour_log(params, big_z / rn, big_w / rn)
                    assert abs(via.ratio_to(exact) - 1.0) <= 1e-8


def test_quadrature_order_robustness():
    params = ModelParams(d=2, tau=0.4, n=256)
    inv = edge_invariants(params, 11)
    base = integral_I_tau(params, *inv, ContourConfig(tolerance=1e-11))
    finer = integral_I_tau(
        params, *inv, ContourConfig(node_count=3 * 512, tolerance=1e-11)
    )
    assert abs(finer.ratio_to(base) - 1.0) <= 1e-10


def test_radius_offset_robustness():
    params = ModelParams(d=1, tau=0.5, n=400)
    inv = edge_invariants(params, 13)
    vals = []
    for offset in (0.5, 1.0, 1.5):
        vals.append(integral_I_tau(params, *inv, ContourConfig(radius_offset=offset)))
    for v in vals[1:]:
        assert abs(v.ratio_to(vals[0]) - 1.0) <= 1e-9


def _circle_values(params, x, q_sum, r):
    """The node values of a one-row block on the circle |t| = r."""
    return functools.partial(_quadrature, params, [(x, q_sum, r)])


def _all_nodes(node_values, count, midpoints=False):
    """Log magnitudes and phases of every node of a count-node table, one row."""
    lg, phase_of = node_values([0], _trapezoid_nodes(count, midpoints), midpoints)
    every = np.arange(count)
    return lg, phase_of(None, every, every)


def test_pole_side_consistency():
    # Cauchy: circle with the pole enclosed plus the residue equals the
    # circle with the pole excluded.
    params = ModelParams(d=1, tau=0.5, n=256)
    x, q_sum, _ = edge_invariants(params, 17)
    count = 8192
    r_out = 1.02
    r_in = 0.98
    weight = math.log(count)
    lg_o, ph_o = _all_nodes(_circle_values(params, x, q_sum, r_out), count)
    enclosed = stable_sum_arrays(np.append(lg_o - weight, 0.0), np.append(ph_o, 1.0 + 0.0j))
    lg_i, ph_i = _all_nodes(_circle_values(params, x, q_sum, r_in), count)
    excluded = stable_sum_arrays(lg_i - weight, ph_i)
    assert abs(enclosed.ratio_to(excluded) - 1.0) <= 1e-9


def _node_cases(d, tau, n):
    """Per radius and midpoints flag: the node function on the node table, the
    complex reference on the same angles, and each node's rounding scale.

    The radii lie on both sides of the pole and at 0.998 (near the branch
    points +-1 of s = tau t for tau > 0, or the pole at tau = 0); the node
    function runs on |t| = r/tau where the reference runs on |s| = r.  The
    scale bounds the sizes the two evaluations round: n times the terms of
    n F(s) (each divided by |1 +- s| once more, as the reference forms
    1 +- s in complex arithmetic) and the whole turn n theta, plus the
    reference's relative error in s - pole and 1 - s^2.
    """
    params = ModelParams(d=d, tau=tau, n=n)
    z = edge_point_sample(params, 3).z
    rn = math.sqrt(n)
    u, v = np.zeros(d), 0.3 * np.exp(1j * np.arange(d))
    count = 1024
    for midpoints in (False, True):
        theta = 2 * math.pi * (np.arange(count) + 0.5 * midpoints) / count
        table = _trapezoid_nodes(count, midpoints)
        x, q_sum, _ = pair_invariants(z + u / rn, z + v / rn)
        if tau == 0.0:
            zeta = x
            for r in (0.98, 0.998, 1.02):
                s = r * np.exp(1j * theta)
                scale = n * (abs(zeta) * (r + 1.0) + abs(math.log(r)) + 2 * math.pi)
                scale = scale + r / np.abs(s - 1.0) + 1.0
                yield (
                    _quadrature(params, [(x, q_sum, r)], [0], table, midpoints),
                    quadrature_zero_complex(zeta, n, r, theta),
                    scale,
                )
            continue
        frame = frame_of_invariants(params, *pair_invariants(z + u / rn, z + v / rn))
        phase = frame.phase
        size = abs(math.log(tau)) + abs(phase_at_pole(phase)) + 2 * math.pi
        for r in (0.98 * tau, 0.5 * (tau + 0.999), 0.998):
            s = r * np.exp(1j * theta)
            plus, minus = np.abs(1.0 + s), np.abs(1.0 - s)
            scale = abs(phase.p_sq) * r / plus * (1.0 + 1.0 / plus)
            scale = scale + abs(phase.q_sq) * r / minus * (1.0 + 1.0 / minus)
            scale = n * (scale + abs(math.log(r)) + size) + d / np.abs(1.0 - s * s)
            yield (
                _quadrature(params, [(x, q_sum, r / tau)], [0], table, midpoints),
                quadrature_tau_complex(frame, params, r, theta),
                scale + r / np.abs(s - tau) + 1.0,
            )


@pytest.mark.parametrize("n", [2, 64, 4096])
@pytest.mark.parametrize("tau", [0.0, 1e-3, 0.5, 0.93, 0.99])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nodes_match_the_complex_expression(d, tau, n):
    # real-arithmetic magnitudes and phases against the complex expression
    # at every node, within 8 eps of each node's rounding scale (the worst
    # measured is 1.1); and the count-node rule over the kept nodes against
    # the reference sum of all of them, within those node errors plus the
    # rounding of the two sums
    count = 1024
    every = np.arange(count)
    for (log_mag, phase_of), (ref_log, ref_phase), scale in _node_cases(d, tau, n):
        tol = 8 * EPS * scale
        assert np.all(np.abs(log_mag - ref_log) <= tol)
        assert np.all(np.abs(phase_of(None, every, every) - ref_phase) <= tol)

        (shift,), _, terms = contour._node_pass(lambda *_: (log_mag, phase_of), [0], count)
        got = LogMagnitudePhase.from_shifted(shift - math.log(count), complex(np.sum(terms[0])))
        want = stable_sum_arrays(ref_log - math.log(count), ref_phase)
        ref_weights = np.exp(ref_log - shift) / count
        bound = float(np.sum(ref_weights * tol)) + 2 * (10 + 16) * EPS * float(np.sum(ref_weights))
        assert abs(got.ratio_to(want) - 1.0) * math.exp(want.log_mag - shift) <= bound


def test_dropped_nodes_move_an_integral_by_less_than_2_eps_of_its_l1_norm(monkeypatch):
    # at n = 4096 most nodes lie more than 60 nats below the largest and get
    # no weight or phase; keeping them all moves the integral by less than
    # 2 eps of the L1 norm of its weighted node terms
    passes = []
    original = contour._node_pass

    def recorded(*args):
        shift, l1, terms = original(*args)
        passes.append((shift[0], l1[0], terms[0]))  # one row: the pair's own pass
        return shift, l1, terms

    def nonzero_terms():
        return sum(np.count_nonzero(terms) for _, _, terms in passes)

    monkeypatch.setattr(contour, "_node_pass", recorded)
    for d, tau in [(1, 0.0), (2, 0.5), (3, 0.93)]:
        params = ModelParams(d=d, tau=tau, n=4096)
        z = edge_point_sample(params, 7).z
        u, v = np.zeros(d), 0.4 * np.exp(1j * np.arange(d))
        for residue in (True, False):
            passes.clear()
            (got,) = normalized_integral_many(params, [z], [u], [v], include_residue=residue)
            kept = nonzero_terms()
            assert kept < sum(terms.size for _, _, terms in passes)
            monkeypatch.setattr(contour, "_KEEP_NATS", math.inf)
            passes.clear()
            (full,) = normalized_integral_many(params, [z], [u], [v], include_residue=residue)
            monkeypatch.setattr(contour, "_KEEP_NATS", 60.0)
            # the full run sums nodes the default run drops, and with no node
            # dropped its L1 norm is the plain sum of all the weights
            assert nonzero_terms() > kept
            count = sum(terms.size for _, _, terms in passes)
            top = max(shift for shift, _, _ in passes)
            l1 = sum(math.exp(shift - top) * l1 for shift, l1, _ in passes)
            l1_log = top + math.log(l1 / count)
            assert abs(got.ratio_to(full) - 1.0) * math.exp(full.log_mag - l1_log) < 2 * EPS


def _with_reference_nodes(monkeypatch, integral):
    """integral() on the reference node expressions of tests/oracles.py:
    every tau term formed at every tau, and a weight at every node."""
    with monkeypatch.context() as patched:
        patched.setattr(contour, "_quadrature", quadrature_reference)
        patched.setattr(contour, "_node_pass", node_pass_all_nodes)
        return integral()


def _value_or_refusal(integral):
    try:
        return integral()
    except EdgeDppError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [2, 64, 256, 1024, 4096])
@pytest.mark.parametrize("tau", [0.0, 5e-324, 1e-3, 0.5, 0.95])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trimmed_node_pass_gives_the_reference_floats(monkeypatch, d, tau, n):
    # weights and phases only at the kept nodes, no tau terms at rho = 0 and
    # the gathered rows change no bit of the integral: equal floats, not a
    # tolerance (or the same refusal), with and without the residue, at half
    # an edge point and 1.2 times it.  Bare circles enclose the pole at the
    # half point and not at 1.2; a circle keeping its residue at small n and
    # tau = 0.95 moves inside the pole, so both sides are asserted as the
    # circles the code picks
    params = ModelParams(d=d, tau=tau, n=n)
    edge = edge_point_sample(params, 5).z
    inside, sides = [], set()

    def recorded(params, circles, rows, *table):
        inside.append(circles[rows[0]][2] > 1.0)
        return _quadrature(params, circles, rows, *table)

    monkeypatch.setattr(contour, "_quadrature", recorded)
    values = 0
    for scale in (0.5, 1.2):
        z = scale * edge
        inv = pair_invariants(z, z + 0.3 / math.sqrt(n) * np.exp(1j * np.arange(d)))
        for residue in (True, False):
            integral = functools.partial(integral_I_tau, params, *inv, include_residue=residue)
            inside.clear()
            got = _value_or_refusal(integral)
            assert got == _with_reference_nodes(monkeypatch, functools.partial(_value_or_refusal, integral))
            assert residue or inside[0] == (scale == 0.5)
            sides.add(inside[0])
            values += isinstance(got, LogMagnitudePhase)
    assert sides == {True, False}
    # only a bare integral inside the pole may cancel past double precision
    assert values >= 3


@pytest.mark.parametrize("d, tau", [(1, 0.0), (2, 0.5), (3, 0.93)])
def test_cancellation_guard_bounds_every_evaluated_node(monkeypatch, d, tau):
    # the guard's log L1 norm leaves out the nodes dropped below e^-60 of the
    # largest, at most count e^-60 of a norm >= 1: it is the log-sum-exp of
    # every evaluated node (and the residue) up to the rounding of the two
    # sums and their logs (a few eps of the shifts they add)
    params = ModelParams(d=d, tau=tau, n=4096)
    z = edge_point_sample(params, 7).z
    u, v = np.zeros(d), 0.4 * np.exp(1j * np.arange(d))
    evaluated, guarded, radii = [], [], []
    original_guard = contour._reject_hopeless_cancellation

    def node_values(params, circles, rows, table, midpoints):
        radii.append(circles[rows[0]][2])
        log_mag, phase_of = _quadrature(params, circles, rows, table, midpoints)
        evaluated.append(log_mag)
        return log_mag, phase_of

    def guard(l1_log, val, r, n):
        guarded.append(l1_log)
        return original_guard(l1_log, val, r, n)

    monkeypatch.setattr(contour, "_quadrature", node_values)
    monkeypatch.setattr(contour, "_reject_hopeless_cancellation", guard)
    for residue in (True, False):
        evaluated.clear()
        guarded.clear()
        radii.clear()
        normalized_integral_many(params, [z], [u], [v], include_residue=residue)
        count = evaluated[0].size
        for i, l1_log in enumerate(guarded):
            weighted = np.concatenate(evaluated[: i + 1]) - math.log(count)
            if residue and radii[0] > 1.0:
                weighted = np.append(weighted, 0.0)
            shift = float(np.max(weighted))
            assert np.count_nonzero(weighted < shift - 60.0) > 0  # the bound is exercised
            oracle = shift + math.log(math.fsum(np.exp(weighted - shift)))
            slack = 16 * EPS * (abs(shift) + math.log(count) + 1.0)
            assert oracle - slack <= l1_log <= oracle + math.log1p(weighted.size * math.exp(-60.0)) + slack
            count *= 2


def test_node_tables_are_read_only_cached_and_bounded():
    for count in (64, 1000):
        for midpoints in (False, True):
            table = _trapezoid_nodes(count, midpoints)
            assert table is _trapezoid_nodes(count, midpoints)
            assert table.shape == (6, count) and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
            theta = 2 * math.pi * (np.arange(count) + 0.5 * midpoints) / count
            cos, sin = np.cos(theta), np.sin(theta)
            # the reference angles themselves round by up to 4 eps (an ulp of 2 pi)
            assert np.allclose(table[:4], [cos, sin, 1.0 - cos, 1.0 + cos], rtol=0.0, atol=8 * EPS)
            # against the exact angles pi m / count, m = 2k (+ 1 at midpoints):
            # sin 2 theta and 2 sin^2 theta within 8 eps of their size at every
            # seventh node, and 1 -+ cos and 2 sin^2 within 8 eps relative near
            # theta = 0, pi and 2 pi, where they vanish
            with mpmath.workdps(30):
                near = [*range(4), *range(count // 2 - 2, count // 2 + 2), *range(count - 4, count)]
                for k in sorted({*near, *range(0, count, 7)}):
                    half = mpmath.mpf(2 * k + midpoints) / (2 * count)  # in units of pi
                    rows = [(2, 2 * mpmath.sinpi(half) ** 2), (3, 2 * mpmath.cospi(half) ** 2)]
                    rows += [(4, mpmath.sinpi(4 * half)), (5, 2 * mpmath.sinpi(2 * half) ** 2)]
                    for row, want in rows:
                        size = abs(want) if k in near and row != 4 else max(abs(want), 1.0)
                        assert abs(table[row, k] - want) <= 8 * EPS * size
    limit = _trapezoid_nodes.cache_info().maxsize
    assert limit is not None
    for count in range(64, 64 + 2 * limit):
        _trapezoid_nodes(count)
    assert _trapezoid_nodes.cache_info().currsize <= limit


def _record_passes(monkeypatch, node_function):
    """Count the nodes of every pass and note the radius the rule runs on."""
    counts, radii = [], []

    def counted(count, *args, **kwargs):
        counts.append(count)
        return _trapezoid_nodes(count, *args, **kwargs)

    def recorded(*args):
        circles, rows = args[-4:-2]  # (..., circles, rows, table, midpoints)
        radii.append(circles[rows[0]][2])
        return node_function(*args)

    monkeypatch.setattr(contour, "_trapezoid_nodes", counted)
    monkeypatch.setattr(contour, node_function.__name__, recorded)
    return counts, radii


def _pole_alias(count, r):
    """What the rule adds to the count-node sum on |t| = r: minus its error
    on the pole part -t/(t - 1), whose exact mean is -1 inside and 0 outside."""
    return 1.0 / (r**count - 1.0) if r > 1.0 else -(r**count) / (1.0 - r**count)


def _single_pass(node_values, count, residue, r):
    """The count-node trapezoid sum, all nodes evaluated at once, with the
    pole part's aliasing and the residue added."""
    lg, ph = _all_nodes(node_values, count)
    alias = _pole_alias(count, r)
    lg, ph = np.append(lg - math.log(count), math.log(abs(alias))), np.append(ph, math.copysign(1.0, alias))
    if residue:
        return stable_sum_arrays(np.append(lg, 0.0), np.append(ph, 1.0 + 0.0j))
    return stable_sum_arrays(lg, ph)


def _route_cases():
    """Per case: params, the integral of (config, include_residue) and the
    node values on a radius |t| = r, which encloses the pole t = 1 when r > 1."""
    params = ModelParams(d=2, tau=0.4, n=256)
    inv = edge_invariants(params, 11)
    yield (
        params,
        lambda config, residue: integral_I_tau(params, *inv, config, residue),
        lambda r: _circle_values(params, inv[0], inv[1], r),
    )
    params0 = ModelParams(d=1, tau=0.0, n=1024)
    for zeta in (0.99 + 0.01j, 1.01 - 0.01j):
        yield (
            params0,
            lambda config, residue, zeta=zeta: integral_zero(params0, zeta, config, residue),
            lambda r, zeta=zeta: _circle_values(params0, zeta, 0j, r),
        )


def _grid_values(even, odd, mid_even, mid_odd):
    """Hand-built node values by position: the even and odd points of a
    node table, and the even and odd points of its midpoints."""

    def node_values(rows, table, midpoints):
        odd_index = np.arange(table.shape[1]) % 2 == 1
        values = np.where(odd_index, mid_odd if midpoints else odd, mid_even if midpoints else even)
        values = values.astype(complex)
        return np.log(np.abs(values)), lambda at_row, keep, flat: (values / np.abs(values))[keep]

    return node_values


def _doubling_cases():
    """Edge pairs at tau > 0 and n = 64 whose integrand the start count's
    half rule does not resolve to 1e-12, one circle outside the pole and
    one enclosing it: params, the integral and the node values as in
    _route_cases.  At tau <= 0.6 the small-n circle rule's settling radius
    lies past these circles, so it leaves them where they are."""
    for d, tau, seed in [(1, 0.6, 15), (2, 0.5, 3)]:
        params = ModelParams(d=d, tau=tau, n=64)
        inv = edge_invariants(params, seed)
        yield (
            params,
            lambda config, residue, params=params, inv=inv: integral_I_tau(params, *inv, config, residue),
            lambda r, params=params, inv=inv: _circle_values(params, inv[0], inv[1], r),
        )


def test_half_rule_check_evaluates_n_nodes(monkeypatch):
    # the even-indexed half of the N start nodes is the N/2-node rule: when
    # it agrees with T_N the nodes are evaluated once and T_N is returned;
    # when it does not, one doubling evaluates the N midpoints only and the
    # nested value is the 2N-node rule summed in one pass.  With the pole's
    # aliasing cancelled, the route cases settle at the start count, and
    # under a 1e-12 tolerance the doubling cases need the midpoints
    for params, integral, node_values in _route_cases():
        count = 32 * math.isqrt(params.n - 1) + 32
        for include_residue in (True, False):
            counts, radii = _record_passes(monkeypatch, _quadrature)
            val = integral(ContourConfig(), include_residue)
            assert counts == [count]
            r = radii[0]
            residue = include_residue and r > 1.0
            ref = _single_pass(node_values(r), count, residue, r)
            assert abs(val.ratio_to(ref) - 1.0) <= 1e-13
            monkeypatch.undo()

    strict = ContourConfig(tolerance=1e-12, max_doublings=1)
    sides = set()
    for params, integral, node_values in _doubling_cases():
        count = 32 * math.isqrt(params.n - 1) + 32
        for include_residue in (True, False):
            counts, radii = _record_passes(monkeypatch, _quadrature)
            val = integral(strict, include_residue)
            assert counts == [count, count]
            r = radii[0]
            sides.add(r > 1.0)
            residue = include_residue and r > 1.0
            half = _single_pass(node_values(r), count // 2, residue, r)
            ref = _single_pass(node_values(r), count, residue, r)
            ref2 = _single_pass(node_values(r), 2 * count, residue, r)
            assert abs(ref.ratio_to(half) - 1.0) > strict.tolerance
            assert abs(ref2.ratio_to(ref) - 1.0) < 0.1 * strict.tolerance
            assert abs(val.ratio_to(ref2) - 1.0) <= 1e-13
            monkeypatch.undo()
    assert sides == {True, False}

    # the half is the even-indexed nodes: T_N = 1.75 sits 0.75 (relative)
    # from the even half's 1.0 but only 0.3 from the odd half's 2.5, so only
    # the even half misses the 0.5 tolerance and forces the doubling
    counts, _ = _record_passes(monkeypatch, _quadrature)
    nodes = _grid_values(1.0, 2.5, 1.75, 1.75)
    loose = ContourConfig(tolerance=0.5, max_doublings=1)
    # on |t| = 0.5, where the pole part's aliasing (0.5^64) is below rounding
    (val,) = contour._nested_trapezoid(nodes, 64, [(0.5, False, 0.5)], loose, 16)
    assert counts == [64, 64]
    assert abs(val.value - 1.75) <= 1e-14

    # 65 start nodes hold no 32.5-node rule: the start count becomes 66,
    # and the value stays exact (N_0 = e^{-zeta} at n = 1)
    for zeta in (0.7, 1.3 - 0.4j):
        counts.clear()
        val = integral_zero(ModelParams(d=1, tau=0.0, n=1), zeta, ContourConfig(node_count=65))
        assert counts[0] == 66
        assert abs(val.value - np.exp(-zeta)) <= 1e-12 * abs(np.exp(-zeta))


@pytest.mark.parametrize("residue", [False, True])
@pytest.mark.parametrize(
    "log_delta, mid_spread, raises_at",
    [
        (-32.0, 1.0, None),  # below the 34-nat threshold throughout
        (-34.5, 1.0, 0),  # above it at T_N
        (-33.0, math.e**3, 1),  # below at T_N, above once the midpoints join
    ],
)
def test_cancellation_guard_matches_log_sum_exp_of_all_nodes(monkeypatch, residue, log_delta, mid_spread, raises_at):
    # the value is delta at every estimate: the nodes are delta +- 1 and the
    # midpoints delta +- mid_spread, less the pole part's aliasing on |t| =
    # r (and less 1 with the residue, which then supplies the 1), so the
    # spread over delta sets the digits lost.  The guard's scalar log L1
    # must equal a log-sum-exp over every evaluated node, the aliasing (and
    # the residue), and it must refuse exactly where that array form
    # exceeds 34 nats.  The circle encloses the pole where the residue joins
    delta = math.exp(log_delta)
    r = 1.1 if residue else 0.9
    base = delta - residue - _pole_alias(64, r)
    mid = 2.0 * (delta - residue - _pole_alias(128, r)) - base  # T_128 = (T_64 + mid) / 2
    evaluated, guarded = [], []
    hand_built = _grid_values(base + 1.0, base - 1.0, mid + mid_spread, mid - mid_spread)

    def node_values(rows, table, midpoints):
        lg, phase_of = hand_built(rows, table, midpoints)
        evaluated.append(lg)
        return lg, phase_of

    def guard(l1_log, val, r, n):
        guarded.append((l1_log, val))
        return original(l1_log, val, r, n)

    original = contour._reject_hopeless_cancellation
    monkeypatch.setattr(contour, "_reject_hopeless_cancellation", guard)
    loose = ContourConfig(tolerance=0.5, max_doublings=1)
    (got,) = contour._nested_trapezoid(node_values, 64, [(r, residue, r)], loose, 16)
    raised = len(guarded) - 1 if isinstance(got, ContourError) else None
    assert raised == raises_at

    count = 64
    for i, (l1_log, val) in enumerate(guarded):
        weighted = np.concatenate(evaluated[: i + 1]) - math.log(count)
        weighted = np.append(weighted, math.log(abs(_pole_alias(count, r))))
        if residue:
            weighted = np.append(weighted, 0.0)
        shift = float(np.max(weighted))
        oracle = shift + math.log(float(np.sum(np.exp(weighted - shift))))
        assert abs(l1_log - oracle) <= 1e-12
        assert (oracle - val.log_mag > 34.0) == (i == raised)
        count *= 2


@pytest.mark.parametrize("r, bare, raw_miss", [(1.05, -1.0, 4.6e-2), (0.95, 0.0, 3.9e-2)])
def test_rule_cancels_the_aliasing_of_a_pure_pole(monkeypatch, r, bare, raw_miss):
    # node values of the pole part -t/(t - 1) alone on |t| = r: the raw
    # 64-node rule misses its bare integral (-1 around the pole, 0 beside
    # it) by 1/(r^64 - 1) or r^64/(1 - r^64), and the first estimate, with
    # the aliasing cancelled, is the bare value to rounding
    def node_values(rows, table, midpoints):
        t = r * (table[0] + 1j * table[1])
        h = -t / (t - 1.0)
        return np.log(np.abs(h)), lambda at_row, keep, flat: (h / np.abs(h))[keep]

    t = r * np.exp(2j * np.pi * np.arange(64) / 64)
    assert math.isclose(abs(np.mean(-t / (t - 1.0)) - bare), raw_miss, rel_tol=0.02)
    estimates = []
    monkeypatch.setattr(contour, "_reject_hopeless_cancellation", lambda l1_log, val, *_: estimates.append(val))
    contour._nested_trapezoid(node_values, 64, [(r, False, r)], ContourConfig(max_doublings=1), 16)
    assert abs(estimates[0].value - bare) <= 1e-15


# A config under which some rows of a block double, some fail, and some
# settle at the start count: with the pole's aliasing cancelled, the n = 64
# rows at tau = 0 meet 1e-13 at the start count, so the tolerance sits at
# the rounding of the sums.
_STRICT = ContourConfig(radius_offset=0.5, tolerance=1e-15, max_doublings=1)


def _block_invariants(params):
    """(X, Q, P) of 16 seeded pairs at 0.5 to 1.5 times edge points, and rows
    that stop before the rule: a nan X, X = Q = P = 0 (the residue alone at
    tau = 0) and, at tau >= 1e-3, a focal input: Q = 0 and zhat_+^2 = q P/8
    = 2 tau, with X = (P - Q)/4 as every pair has."""
    n, d, tau = params.n, params.d, params.tau
    rng = np.random.default_rng(3)
    rows = []
    for seed in range(16):
        z = rng.choice([0.5, 0.9, 1.0, 1.1, 1.5]) * edge_point_sample(params, seed).z
        rows.append(pair_invariants(z, z + rng.uniform(0.0, 1.0) / math.sqrt(n) * np.exp(1j * rng.uniform(0.0, 6.0, d))))
    rows[3:3] = [(complex(math.nan), 0j, 0j)]
    rows[9:9] = [(0j, 0j, 0j)]
    if tau >= 1e-3:
        p_sum = 16.0 * tau / ((1.0 - tau) * (1.0 + tau))
        rows[12:12] = [(complex(p_sum / 4.0), 0j, complex(p_sum))]
    return rows


def _record_blocks(monkeypatch):
    """Record (rows, midpoints) of each node pass, each node-table read, each
    guarded estimate, and the (X, Q, r) circles of each pass's rows."""
    log = {"passes": [], "tables": [], "guarded": [], "circles": []}
    node_pass, nodes, guard, quadrature = (
        contour._node_pass, contour._trapezoid_nodes, contour._reject_hopeless_cancellation, contour._quadrature
    )

    def recorded_pass(node_values, rows, count, midpoints=False):
        log["passes"].append((len(rows), midpoints))
        return node_pass(node_values, rows, count, midpoints)

    def recorded_nodes(params, circles, rows, *args):
        log["circles"].append([circles[i] for i in rows])
        return quadrature(params, circles, rows, *args)

    monkeypatch.setattr(contour, "_node_pass", recorded_pass)
    monkeypatch.setattr(contour, "_trapezoid_nodes", lambda *a: log["tables"].append(a) or nodes(*a))
    monkeypatch.setattr(contour, "_reject_hopeless_cancellation", lambda *a: log["guarded"].append(a) or guard(*a))
    monkeypatch.setattr(contour, "_quadrature", recorded_nodes)
    return log


@pytest.mark.parametrize("d, tau, n", [(1, 0.0, 64), (1, 5e-324, 64), (2, 0.5, 64), (3, 0.5, 256), (2, 0.93, 16)])
def test_every_row_of_a_block_is_its_one_row_value(monkeypatch, d, tau, n):
    # equal floats (==), or the same refusal, for each row of one call: rows
    # that settle at the start count, rows that double (as a shrinking set)
    # and settle, rows that fail in the rule or before it, X = 0 at tau = 0,
    # and at tau = 5e-324 rows with tau r = 0 beside rows with tau r > 0.
    # Each pass reads one node table and each row estimate passes the
    # cancellation guard once: bench/spans.py counts those calls
    params = ModelParams(d=d, tau=tau, n=n)
    rows = _block_invariants(params)
    kinds, settled_after_doubling = collections.Counter(), 0
    for residue in (True, False):
        ones = [_value_or_refusal(functools.partial(integral_I_tau, params, *row, _STRICT, residue)) for row in rows]
        with monkeypatch.context() as patched:
            log = _record_blocks(patched)
            got = contour._integral_rows(params, *zip(*rows), _STRICT, residue)
        starts = [size for size, midpoints in log["passes"] if not midpoints]
        doubled = [size for size, midpoints in log["passes"] if midpoints]
        assert len(log["tables"]) == len(log["passes"]) and len(log["guarded"]) == sum(starts) + sum(doubled)
        assert max(starts) > 1 and all(0 < size < max(starts) for size in doubled)
        for val, one in zip(got, ones):
            kinds[type(val).__name__] += 1
            assert (val if isinstance(val, LogMagnitudePhase) else (type(val), str(val))) == one
        # with one doubling allowed, the rows that doubled and did not fail later settled
        late = [val for val in got if isinstance(val, QuadratureError) or str(val).startswith("cancellation")]
        settled_after_doubling += sum(doubled) - len(late)
        if tau == 5e-324:
            assert any(min(tau * c[2] for c in block) == 0.0 < max(tau * c[2] for c in block) for block in log["circles"])
    assert settled_after_doubling > 0 and kinds["DomainError"] == 2
    assert (kinds["DegenerateSaddleError"] > 0) == (tau >= 1e-3)
    assert (kinds["UsageError"] > 0) == (tau == 0.0)


def test_batched_routes_give_each_rows_value_or_raise_its_first_failing_rows_error():
    # kernel_via_contour_log_many and normalized_integral_many give each row
    # its one-row call's value (==), or raise the error of the first row whose
    # one-row call raises, with its type and message: a QuadratureError or,
    # read in reverse, the UsageError of X = 0 at tau = 0 without residue
    params = ModelParams(d=1, tau=0.0, n=64)
    rng = np.random.default_rng(11)  # rows 6, 8, 10, 12 and 14 fail the rule under _STRICT without the residue
    zs = [s * edge_point_sample(params, seed).z for seed, s in enumerate(rng.choice([0.5, 1.0, 1.5], 16))] + [[0.0]]
    us = [rng.uniform(-0.5, 0.5, 1) + 1j * rng.uniform(-0.5, 0.5, 1) for _ in range(16)] + [[0.0]]
    vs = [rng.uniform(-0.5, 0.5, 1) + 1j * rng.uniform(-0.5, 0.5, 1) for _ in range(16)] + [[0.0]]
    rows = list(zip(zs, us, vs))
    pairs = [(z + np.asarray(u) / 8.0, z + np.asarray(v) / 8.0) for z, u, v in rows]
    assert kernel_via_contour_log_many(params, *zip(*pairs)) == [kernel_via_contour_log(params, *p) for p in pairs]
    def one_row(row):
        return normalized_integral_many(params, *([a] for a in row), _STRICT, False)[0]

    ones = [_value_or_refusal(functools.partial(one_row, row)) for row in rows]
    values = [(row, one) for row, one in zip(rows, ones) if isinstance(one, LogMagnitudePhase)]
    assert normalized_integral_many(params, *zip(*(row for row, _ in values)), _STRICT, False) == [v for _, v in values]
    # under an unreachable tolerance every rule fails, each naming its radius
    never = ContourConfig(tolerance=1e-300, max_doublings=1)
    kernel_ones = [_value_or_refusal(functools.partial(kernel_via_contour_log, params, *p, never)) for p in pairs]
    firsts = set()
    for order in (slice(None), slice(None, None, -1)):
        first = next(one for one in ones[order] if isinstance(one, tuple))
        with pytest.raises(EdgeDppError) as caught:
            normalized_integral_many(params, *zip(*rows[order]), _STRICT, False)
        assert (type(caught.value), str(caught.value)) == first
        firsts.add(first[0])
        first = next(one for one in kernel_ones[order] if isinstance(one, tuple))
        assert kernel_ones.count(first) == 1
        with pytest.raises(first[0], match=f"^{re.escape(first[1])}$"):
            kernel_via_contour_log_many(params, *zip(*pairs[order]), never)
    assert firsts == {QuadratureError, UsageError}


def test_bulk_limit_seed_24_still_refuses_cancellation():
    # a known defect (the bare integral on the capped circle cancels past
    # double precision); the refusal must keep its type and message
    with pytest.raises(
        ContourError,
        match=r"^cancellation beyond double precision on the contour "
        r"\(near-degenerate configuration: radius 0\.935, n=1024\)$",
    ):
        run_experiment(default_spec("bulk_limit", seed=24))


@pytest.mark.parametrize("tau", [0.965, 0.97, 0.99, 0.995])
def test_routes_agree_for_tau_near_one(tau):
    # above tau = 0.96 the radius clip used to put the capped circle inside
    # the pole while the residue was still added: twice the kernel, and the
    # bare integral N where the bulk contract says N - 1
    for d in (1, 2):
        n = 256
        params = ModelParams(d=d, tau=tau, n=n)
        rn = math.sqrt(n)
        edge = edge_point_sample(params, 5).z
        for z in (edge, 0.5 * edge):
            w = z + 0.3 / rn * np.exp(1j * np.arange(d))
            exact = kernel_exact_log(params, rn * z, rn * w)
            via = kernel_via_contour_log(params, z, w)
            assert abs(via.ratio_to(exact) - 1.0) <= 1e-8

            inv = pair_invariants(z, w)
            big_n = integral_I_tau(params, *inv).value * exact.ratio_to(via)
            bare = integral_I_tau(params, *inv, include_residue=False).value
            enclosed = abs(contour._saddle_t(tau, *inv)) < 1.0  # the saddle circle |t| = 1/|tau a| encloses t = 1
            assert abs(bare + enclosed - big_n) <= 1e-8 * abs(big_n)


def _near_edge_pair(params, seed, u_size, v_size):
    """z + u/sqrt(n) and z + v/sqrt(n) at a seeded edge point z, with seeded
    directions for u and v and |u| = u_size, |v| = v_size."""
    rng = np.random.default_rng(seed)
    rn = math.sqrt(params.n)
    z = edge_point_sample(params, seed).z
    shifts = []
    for size in (u_size, v_size):
        x = rng.standard_normal(params.d) + 1j * rng.standard_normal(params.d)
        shifts.append(size * x / np.linalg.norm(x))
    return z + shifts[0] / rn, z + shifts[1] / rn


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    tau=st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e-150), st.floats(min_value=0.0, max_value=0.999)),
    n=st.integers(min_value=2, max_value=2048),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    u_size=st.floats(min_value=0.0, max_value=1.0),
    v_size=st.floats(min_value=0.0, max_value=1.0),
)
@example(d=2, tau=1e-200, n=256, seed=1, u_size=0.5, v_size=0.7)
@example(d=1, tau=5e-324, n=2048, seed=2, u_size=1.0, v_size=0.0)
@example(d=1, tau=0.9626320027516655, n=926, seed=26449127, u_size=0.18062569720250998, v_size=0.9905707051900403)
def test_contour_route_agrees_with_the_exact_route(d, tau, n, seed, u_size, v_size):
    # across the whole domain the contour route gives the exact kernel to
    # 1e-8, or refuses with a typed error (as it does for some near-edge
    # pairs past tau = 0.9); subnormal tau is the tau = 0 integral, not a
    # crash.  The tau = 0.96 example is a circle an unbounded outward nudge
    # takes to |s| = 0.9987, next to the branch points
    params = ModelParams(d=d, tau=tau, n=n)
    z, w = _near_edge_pair(params, seed, u_size, v_size)
    try:
        via = kernel_via_contour_log(params, z, w)
    except EdgeDppError:
        return
    exact = kernel_exact_log(params, math.sqrt(n) * z, math.sqrt(n) * w)
    assert abs(via.ratio_to(exact) - 1.0) <= 1e-8


def test_contour_route_near_tau_one_agrees_or_refuses():
    # 40 seeded near-edge draws with tau in [0.9, 0.999], where the outward
    # radius nudge reached the branch points: each agrees with the exact
    # route to 1e-8 or refuses with a typed error, and most agree
    rng = np.random.default_rng(20260401)
    agreed = 0
    for _ in range(40):
        d, tau, n = int(rng.integers(1, 5)), float(rng.uniform(0.9, 0.999)), int(rng.integers(2, 2049))
        params = ModelParams(d=d, tau=tau, n=n)
        z, w = _near_edge_pair(params, int(rng.integers(2**32)), *rng.uniform(0.0, 1.0, 2))
        try:
            via = kernel_via_contour_log(params, z, w)
        except EdgeDppError:
            continue
        exact = kernel_exact_log(params, math.sqrt(n) * z, math.sqrt(n) * w)
        assert abs(via.ratio_to(exact) - 1.0) <= 1e-8, (d, tau, n)
        agreed += 1
    assert agreed >= 30


def test_small_n_row_near_tau_one_settles_inside_the_pole(monkeypatch):
    # this d = 4, n = 8 near-edge pair has its saddle circle at |s| =
    # 0.99898, next to the branch points, where the rule needed 131,072 nodes
    # (more than max_doublings = 9 reaches from the 128 start nodes below
    # n = 10).  The small-n rule moves the circle inside the pole to |s| =
    # 0.56, where the start count settles, and the value agrees with the
    # exact route
    params = ModelParams(d=4, tau=0.9975024200150832, n=8)
    z, w = _near_edge_pair(params, 541629842, 0.6372655376675443, 0.08740262684367495)
    counts, radii = _record_passes(monkeypatch, _quadrature)
    via = kernel_via_contour_log(params, z, w)
    assert counts == [128] and 0.55 < radii[0] < 0.57
    exact = kernel_exact_log(params, math.sqrt(8) * z, math.sqrt(8) * w)
    assert abs(via.ratio_to(exact) - 1.0) <= 1e-8


def test_small_n_block_settles_in_one_pass(monkeypatch):
    # 20 pairs drawn as representation_equivalence draws them (kernel
    # arguments uniform in |c| <= 1.5 per coordinate) at d = 2, tau = 0.7,
    # n = 16, where the saddle circles reach |s| = 0.96 and rows used to
    # double to 1,024-2,048 nodes: on the small-n circles every row settles
    # at the 128 start nodes of one block pass, and matches the exact route
    params = ModelParams(d=2, tau=0.7, n=16)
    rng = np.random.default_rng(16)
    points = rng.uniform(-1.5, 1.5, (200, 2)).view(complex)[:, 0]
    big_zs, big_ws = points[np.abs(points) <= 1.5][:80].reshape(20, 2, 2).transpose(1, 0, 2)
    with monkeypatch.context() as patched:
        log = _record_blocks(patched)
        vias = kernel_via_contour_log_many(params, big_zs / 4.0, big_ws / 4.0)
    assert log["passes"] == [(20, False)] and log["tables"] == [(128, False)]
    for via, exact in zip(vias, kernel_exact_log_many(params, big_zs, big_ws)):
        assert abs(via.ratio_to(exact) - 1.0) <= 1e-12


def test_small_n_circle_stops_the_nudge_off_the_pole():
    # at tau = 0.8 tol^(2/128) the settling radius at n = 16 is the pole t =
    # 1 itself: the circle stops the nudge (5%) outside it, keeps its
    # residue, and agrees with the exact route
    params = ModelParams(d=1, tau=0.8 * 1e-10 ** (2 / 128), n=16)
    z = 0.8 * edge_point_sample(params, 5).z
    w = z + 0.075
    r, residue, _ = contour._circle(params, *pair_invariants(z, w), ContourConfig(), True)
    assert r == 1.0 + 0.05 and residue
    exact = kernel_exact_log(params, 4.0 * z, 4.0 * w)
    assert abs(kernel_via_contour_log(params, z, w).ratio_to(exact) - 1.0) <= 1e-12
    # a nudge below the pole guard's 1e-3 r/sqrt(n) is refused on the moved
    # circle as on the saddle circle
    with pytest.raises(ContourError, match="pole lies within"):
        contour._circle(params, *pair_invariants(z, w), ContourConfig(radius_offset=1e-3), True)


def _circles(monkeypatch, params, rows, residue, settle_max_n):
    """_circle's (r, residue, stated radius) or refusal for each (X, Q, P)
    row, the small-n rule applying up to settle_max_n (0: never)."""
    with monkeypatch.context() as patched:
        patched.setattr(contour, "_SETTLE_MAX_N", settle_max_n)
        return [_value_or_refusal(functools.partial(contour._circle, params, *row, ContourConfig(), residue))
                for row in rows]


def test_small_n_rule_keeps_bare_tau_0_and_large_n_circles(monkeypatch):
    # bit for bit the circle of the rule switched off: every bare integral,
    # every tau = 0 row, and every pair of the benchmark's contour_offdiag
    # cells (n >= 256) at four seeds.  Small-n rows at tau > 0 that keep
    # their residue do move
    limit, moved = contour._SETTLE_MAX_N, 0
    for d, tau in [(1, 0.0), (1, 5e-324), (2, 0.5), (3, 0.93)]:
        params = ModelParams(d=d, tau=tau, n=16)
        rows = _block_invariants(params)
        assert _circles(monkeypatch, params, rows, False, limit) == _circles(monkeypatch, params, rows, False, 0)
        got, unmoved = (_circles(monkeypatch, params, rows, True, cap) for cap in (limit, 0))
        assert tau > 1e-300 or got == unmoved
        moved += sum(a != b for a, b in zip(got, unmoved))
    assert moved > 0
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import offdiag_cells

    for seed in (1, 11, 24, 20260401):
        for cell in offdiag_cells(seed, tiny=False):
            rows = [pair_invariants(z, w) for z, w in cell.pairs]
            assert _circles(monkeypatch, cell.params, rows, True, limit) == _circles(monkeypatch, cell.params, rows, True, 0)


@pytest.mark.parametrize("tau", [0.997, 0.998, 0.999, 0.9999])
def test_bulk_side_point_has_no_circle_from_tau_0_998(tau):
    # a bulk-side point (half the seed-5 edge point, d = 1, n = 64) takes the
    # capped circle |s| = (1 + tau)/2; from tau = 0.998 on that reaches
    # |s| = 0.999, where the branch region starts, and the route refuses
    # with its typed error.  Just below, it agrees with the exact route
    # (2.7e-15 at tau = 0.997)
    params = ModelParams(d=1, tau=tau, n=64)
    z = 0.5 * edge_point_sample(params, 5).z
    w = z + 0.01
    if tau < 0.998:
        exact = kernel_exact_log(params, 8.0 * z, 8.0 * w)
        assert abs(kernel_via_contour_log(params, z, w).ratio_to(exact) - 1.0) <= 1e-12
        return
    shown = re.escape(f"{0.5 * (1.0 + tau):.6f}")
    with pytest.raises(ContourError, match=rf"^contour radius {shown} reaches the branch region at \|s\| = 1$"):
        kernel_via_contour_log(params, z, w)


@pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e-200, 1e-100, 1e-12])
def test_contour_route_is_continuous_as_tau_goes_to_zero(tau):
    # near-edge pairs taken from tau = 0 to tiny tau: the contour route
    # agrees with the exact route, and down to 1e-100 (where tau n |z|^2
    # is below rounding) it returns its tau = 0 value within a few eps
    for d, n in [(1, 16), (2, 256), (3, 1024), (1, 4096)]:
        for seed in (1, 2):
            params0 = ModelParams(d=d, tau=0.0, n=n)
            z, w = _near_edge_pair(params0, seed, 0.8, 0.6)
            params = ModelParams(d=d, tau=tau, n=n)
            via = kernel_via_contour_log(params, z, w)
            exact = kernel_exact_log(params, math.sqrt(n) * z, math.sqrt(n) * w)
            assert abs(via.ratio_to(exact) - 1.0) <= 1e-8
            if tau <= 1e-100:
                assert abs(via.ratio_to(kernel_via_contour_log(params0, z, w)) - 1.0) <= 8 * EPS


def test_quadrature_error_when_rule_cannot_converge():
    never = ContourConfig(tolerance=1e-300, max_doublings=1)
    params = ModelParams(d=1, tau=0.5, n=256)
    with pytest.raises(QuadratureError, match="final node count 1024, tolerance 1e-300"):
        integral_I_tau(params, *edge_invariants(params, 3), never)
    with pytest.raises(QuadratureError, match="final node count 1024, tolerance 1e-300"):
        integral_zero(ModelParams(d=1, tau=0.0, n=256), 0.95 + 0.1j, never)


def test_branch_safety_on_contour():
    # radius < 1 keeps Re(1 - s^2) > 0; the evaluator asserts this and the
    # value for odd d (half-integer power) matches an independent residue
    # check through the kernel representation at d = 3
    params = ModelParams(d=3, tau=0.3, n=8)
    rng = np.random.default_rng(23)
    big_z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    big_w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    exact = kernel_exact_log(params, big_z, big_w)
    via = kernel_via_contour_log(params, big_z / math.sqrt(8), big_w / math.sqrt(8))
    assert abs(via.ratio_to(exact) - 1.0) <= 1e-9


def test_outside_droplet_exponential_decay():
    # u = v = 0 at 1.2x an edge point: N decays exponentially in n, and
    # the contour and kernel routes agree on the (tiny) value in log form
    tau = 0.5
    base = edge_point_sample(ModelParams(d=1, tau=tau, n=2), 9)
    z_out = 1.2 * base.z
    logs = []
    for n in (64, 128, 256):
        params = ModelParams(d=1, tau=tau, n=n)
        val = integral_I_tau(params, *pair_invariants(z_out, z_out))
        logs.append(val.log_mag)
        exact = kernel_exact_log(params, math.sqrt(n) * z_out, math.sqrt(n) * z_out)
        via = kernel_via_contour_log(params, z_out, z_out)
        assert abs(via.ratio_to(exact) - 1.0) <= 1e-8
    # log N roughly linear in n with negative slope
    assert logs[1] - logs[0] < -5.0
    assert (logs[2] - logs[1]) / (logs[1] - logs[0]) == pytest.approx(2.0, rel=0.2)


def test_bulk_deviation_log_form_matches_double_difference():
    # the residue-free circle integral is N - 1 when the pole is enclosed;
    # at small n the difference is still representable in doubles and the
    # two computations must agree
    for tau in (0.0, 0.25):
        params = ModelParams(d=1, tau=tau, n=16)
        ep = edge_point_sample(ModelParams(d=1, tau=tau, n=2), 3)
        inv = pair_invariants(0.5 * ep.z, 0.5 * ep.z)
        full = integral_I_tau(params, *inv)
        dev = integral_I_tau(params, *inv, include_residue=False)
        direct = full.value - 1.0
        assert abs(dev.value - direct) <= 1e-9 * max(abs(direct), 1e-10)
        assert abs(dev.value) > 1e-10  # representable at this n, so the check bites


def test_normalized_integral_is_the_tau_route_of_its_arguments():
    # (sqrt(n) z + u, sqrt(n) z + v): the one integral of the invariants of
    # the shifted points, summed coordinate by coordinate, for every tau;
    # same bits, in both residue modes, with the G(1) of the kernel route
    # (X at tau = 0)
    rng = np.random.default_rng(41)
    for d, tau in [(1, 0.0), (2, 0.0), (1, 0.5), (3, 0.3)]:
        params = ModelParams(d=d, tau=tau, n=64)
        ep = edge_point_sample(params, 5)
        u = rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d)
        v = rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d)
        for residue in (True, False):
            (got,) = normalized_integral_many(params, [ep.z], [u], [v], include_residue=residue)
            x, q_sum, p_sum = pair_invariants(ep.z + u / 8.0, ep.z + v / 8.0)
            want = integral_I_tau(params, x, q_sum, p_sum, include_residue=residue)
            f_pole = contour._g_at_pole(tau, x, q_sum)
            assert (got, f_pole) == (want, (1.0 - tau) * x - 0.5 * tau * q_sum)
            if tau == 0.0:
                assert f_pole == x


def test_contour_config_validation():
    with pytest.raises(DomainError):
        ContourConfig(node_count=32)
    with pytest.raises(DomainError):
        ContourConfig(tolerance=0.0)
    # X = 0 at tau = 0: the residue alone, exactly 1, with no bare integral
    assert integral_I_tau(ModelParams(d=2, tau=0.0, n=4), 0.0, 1.0, 1.0).value == 1.0
    with pytest.raises(UsageError):
        integral_I_tau(ModelParams(d=1, tau=0.0, n=4), 0.0, 0.0, 0.0, include_residue=False)
    # invariants no pair has, at subnormal tau: tau a rounds to inf + nan i,
    # which would make the radius 0; the refusal is typed
    with pytest.raises(ContourError, match=r"^the saddle is out of reach: \|tau a\| rounds to inf$"):
        integral_I_tau(ModelParams(d=1, tau=5e-324, n=4), 1.0, 0.0, 8e-323)


def test_max_principle_on_random_edge_frames():
    params = ModelParams(d=1, tau=0.6, n=2)
    for seed in range(10):
        assert max_principle_check(params, *edge_invariants(params, seed), 10_000) <= 1e-12


def test_max_principle_check_is_the_complex_phase_on_the_grid():
    # Re F on the saddle circle from the node table, against the complex
    # s-plane PhaseFunction.F at the same angles, within the rounding of F's terms
    for tau in (0.3, 0.6, 0.9):
        params = ModelParams(d=1, tau=tau, n=2)
        for seed in range(5):
            inv = edge_invariants(params, seed)
            frame = frame_of_invariants(params, *inv)
            theta = 2 * math.pi * np.arange(1000) / 1000
            s = frame.radius * np.exp(1j * theta)
            ref = float(np.max(frame.phase.F(s).real) - frame.F_at_a_inv.real)
            size = abs(frame.phase.p_sq) + abs(frame.phase.q_sq) / float(np.min(np.abs(1.0 - s))) ** 2
            assert abs(max_principle_check(params, *inv, 1000) - ref) <= 16 * EPS * (size + 1.0)


def _phase_on_saddle_circle(tau, inv, grid):
    """Re F(t) at grid nodes of the saddle circle |t| = |t*|, from _phase_t, and the angles."""
    theta = 2 * math.pi * np.arange(grid) / grid
    radius = 1.0 / abs(contour._saddle_t(tau, *inv))
    re_f = [contour._phase_t(tau, *inv[1:], radius * complex(math.cos(a), math.sin(a)))[0].real for a in theta]
    return np.array(re_f), theta


def test_max_principle_maximizer_location():
    tau = 0.5
    inv = edge_invariants(ModelParams(d=2, tau=tau, n=2), 31)
    grid = 20_000
    re_f, theta = _phase_on_saddle_circle(tau, inv, grid)
    best = theta[np.argmax(re_f)]
    saddle = 1.0 / contour._saddle_t(tau, *inv)
    target = math.atan2(saddle.imag, saddle.real) % (2 * math.pi)
    gap = abs(best - target) % (2 * math.pi)
    gap = min(gap, 2 * math.pi - gap)
    assert gap <= 2 * math.pi / grid * 1.5


def test_max_principle_two_maxima_degenerate_case():
    # xi_- = 0: equality at the dominant saddle and at the b saddle on the
    # same circle; check two near-equal local maxima
    import cmath

    tau = 0.5
    scale = math.sqrt(2 * tau)
    inv = contour._invariants_of_hat(tau, scale * cmath.cosh(complex(0.7, 0.6)), scale * math.cos(1.1))
    grid = 40_000
    re_f, _ = _phase_on_saddle_circle(tau, inv, grid)
    dominant, _, b_t, b_inv_t = contour._saddles_t(tau, *inv)
    top = contour._phase_t(tau, *inv[1:], dominant)[0].real
    assert np.max(re_f) - top <= 1e-10
    on_circle = min((b_t, b_inv_t), key=lambda t: abs(abs(t) - abs(dominant)))
    for point in (dominant, on_circle):
        ang = math.atan2(point.imag, point.real)
        node = int(round((ang % (2 * math.pi)) / (2 * math.pi) * grid)) % grid
        assert abs(re_f[node] - top) <= 1e-6 * max(1.0, abs(top))


@pytest.mark.parametrize("tau", [0.0, 1e-160, 1e-200, 5e-324])
@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("d", [1, 2])
def test_routes_agree_on_pairs_near_the_origin(d, tau, n):
    # pairs scaled toward the origin put the saddle past |t| = 1e154, where
    # the node arithmetic overflows; the contour route then runs on a finite
    # circle that encloses the pole and must match the exact route
    params = ModelParams(d=d, tau=tau, n=n)
    z, w = np.array([1 + 0.5j, 0.2 - 0.1j][:d]), np.array([0.3 - 1j, -0.4j][:d])
    pairs = [(s * z, s * w) for s in (1e-100, 1e-150, 1e-160, 0.0)]
    values = kernel_via_contour_log_many(params, *zip(*pairs))
    for (zp, wp), value in zip(pairs, values):
        exact = kernel_exact_log(params, math.sqrt(n) * zp, math.sqrt(n) * wp)
        assert abs(value.ratio_to(exact) - 1.0) <= 1e-8
