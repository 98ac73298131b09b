"""Trace identity: the folded Gauss-Hermite rule and the trace_identity runner."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedpp.cli import load_config
from edgedpp.errors import EdgeDppError
from edgedpp.harness import _hermite_rule, _trace_gauss_hermite, default_spec, emit_report, run_experiment
from edgedpp.kernel import ModelParams, kernel_exact


def _product_rule_trace(params: ModelParams, order: int) -> float:
    """Unfolded order^(2d) Gauss-Hermite product rule for the integral of K_n(z, z)."""
    s, w = np.polynomial.hermite.hermgauss(order)
    a, b = math.sqrt(1.0 - params.tau), math.sqrt(1.0 + params.tau)
    jacobian = math.sqrt(1.0 - params.tau**2)
    coordinate = [
        (complex(x / a, y / b), wx * wy * math.exp(x * x + y * y) / jacobian)
        for x, wx in zip(s, w)
        for y, wy in zip(s, w)
    ]
    terms = []
    for combo in itertools.product(coordinate, repeat=params.d):
        z = np.array([c[0] for c in combo])
        terms.append(math.prod(c[1] for c in combo) * kernel_exact(params, z, z).real)
    return math.fsum(terms)


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("d, ns", [(1, (6, 7)), (2, (4, 5)), (3, (2, 3))])
def test_gauss_hermite_trace_is_exact(d, ns, tau):
    for n in ns:
        params = ModelParams(d=d, tau=tau, n=n)
        got = _trace_gauss_hermite(params)
        assert abs(got / params.point_count - 1.0) <= 1e-12, (d, tau, n, got)


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("d, n", [(1, 5), (1, 6), (2, 3), (2, 4)])
def test_folded_rule_equals_the_full_product_rule(d, n, tau):
    params = ModelParams(d=d, tau=tau, n=n)
    full = _product_rule_trace(params, n)
    assert abs(_trace_gauss_hermite(params) / full - 1.0) <= 1e-14


@pytest.mark.parametrize("d, n", [(1, 4), (1, 7), (2, 3), (3, 2)])
def test_one_node_fewer_is_not_exact(d, n):
    # the degree bound 2(n - 1) per real variable is attained, so the
    # (n - 1)-point rule (exact to degree 2n - 3) misses the point count
    params = ModelParams(d=d, tau=0.5, n=n)
    assert abs(_product_rule_trace(params, n) / params.point_count - 1.0) <= 1e-13
    assert abs(_product_rule_trace(params, n - 1) / params.point_count - 1.0) > 1e-3


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=2),
    tau=st.floats(min_value=0.0, max_value=0.95),
    n=st.integers(min_value=1, max_value=10),
)
def test_gauss_hermite_trace_is_exact_property(d, tau, n):
    params = ModelParams(d=d, tau=tau, n=n)
    assert abs(_trace_gauss_hermite(params) / params.point_count - 1.0) <= 1e-12


def test_hermite_rule_is_cached_and_read_only():
    s, w = _hermite_rule(7)
    ref_s, ref_w = np.polynomial.hermite.hermgauss(7)
    assert np.array_equal(s, ref_s) and np.array_equal(w, ref_w)
    assert _hermite_rule(7)[0] is s
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_trace_identity_report_passes_and_ignores_the_seed():
    a = run_experiment(default_spec("trace_identity", seed=7))
    b = run_experiment(default_spec("trace_identity", seed=20260401))
    assert a.passed and b.passed
    assert max(e for s in a.series for _, e in s.samples) <= 1e-13
    assert a.series == b.series
    assert emit_report([a], fmt="json").replace('"seed": 7,', '"seed": 20260401,') == emit_report(
        [b], fmt="json"
    )


def test_trace_identity_integrates_every_coordinate_at_d3():
    # n = 16 is beyond the d > 1 cap of n <= 8 and is skipped
    spec = default_spec("trace_identity", params_grid=((3, 0.5),), n_grid=(2, 4, 16))
    rep = run_experiment(spec)
    assert rep.passed
    (series,) = rep.series
    assert [n for n, _ in series.samples] == [2, 4]
    assert series.note == "skipped_n=16"
    assert all(err <= 1e-13 for _, err in series.samples)


def test_mc_points_is_no_longer_a_setting(tmp_path):
    path = tmp_path / "old.ini"
    path.write_text("[trace_identity]\nmc_points = 2000\n")
    with pytest.raises(EdgeDppError):
        load_config(str(path))
