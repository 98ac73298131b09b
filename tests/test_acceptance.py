"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

Criteria (tolerances pinned here, not deferred):
  01 representation equivalence across (d, tau, n), 20 seeded pairs, 1e-8
  02 tau = 0 closed form against the convolution evaluator, 1e-12
  03 trace identity, exact Gauss-Hermite rule folded by symmetry: d=1 1e-6
     relative, d=2 0.5%
  04 bulk limit decay: error(1024) <= 0.25 error(256)
  05 edge density: residual rate <= -0.8 and the leading-order check
  06 Faddeeva plasma kernel: sqrt(n)-scaled residual band within 1.5x
  07 two-term kernel expansion (saddle.asymptotic_I_tau) at d = 1, tau = 0.5:
     residual rate <= -0.8
  08 pole/Gaussian identity within envelope + double-precision floor
  09 saddle residuals <= 1e-10 and max principle violation <= 1e-12
  10 conformal-map expansions: residual rates <= -1.2
  11 pointwise uniform-density values at |z| = 0.5 (2%) and 1.0 (5%)

The experiments behind several criteria are shared through module-scoped
fixtures so the suite stays well under the ten-minute budget.
"""

import time

import pytest

from edgedpp.harness import default_spec, run_experiment

SEED = 20260401
_T0 = time.time()


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "pass" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}] {name}{extra}")


@pytest.fixture(scope="module")
def rep_equivalence():
    start = time.time()
    report = run_experiment(default_spec("representation_equivalence", seed=SEED))
    return report, time.time() - start


@pytest.fixture(scope="module")
def rep_trace():
    return run_experiment(default_spec("trace_identity", seed=SEED))


@pytest.fixture(scope="module")
def rep_bulk():
    return run_experiment(default_spec("bulk_limit", seed=SEED))


@pytest.fixture(scope="module")
def rep_density():
    return run_experiment(default_spec("edge_density", seed=SEED))


@pytest.fixture(scope="module")
def rep_kernel():
    return run_experiment(default_spec("edge_kernel", seed=SEED))


def test_criterion_01_representation_equivalence(rep_equivalence):
    report, elapsed = rep_equivalence
    worst = max(e for s in report.series for _, e in s.samples)
    ok = worst <= 1e-8 and all(s.passed for s in report.series) and elapsed < 60.0
    _report(1, "representation equivalence", ok, f"worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert ok


def test_criterion_02_tau0_closed_form(rep_equivalence):
    report, _ = rep_equivalence
    worst = max(
        float(s.note.split("=")[1]) for s in report.series if s.tau == 0.0 and s.note
    )
    ok = worst <= 1e-12
    _report(2, "tau = 0 closed form", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_03_trace_identity(rep_trace):
    d1 = max(e for s in rep_trace.series if s.d == 1 for _, e in s.samples)
    d2 = max(e for s in rep_trace.series if s.d == 2 for _, e in s.samples)
    ok = d1 <= 1e-6 and d2 <= 5e-3 and rep_trace.passed
    _report(3, "trace identity", ok, f"d1 {d1:.2e}, d2 {d2:.2e}")
    assert ok


def test_criterion_04_bulk_limit(rep_bulk):
    decay = [s for s in rep_bulk.series if "log_e" in s.note]
    ok = all(s.passed for s in decay)
    worst_ratio = max(s.samples[-1][1] - s.samples[0][1] for s in decay)
    _report(4, "bulk limit decay", ok, f"worst log ratio {worst_ratio:.1f} <= log 0.25")
    assert ok


def test_criterion_05_edge_density(rep_density):
    slopes = [s.fitted_exponent for s in rep_density.series]
    ok = rep_density.passed and all(sl <= -0.8 for sl in slopes)
    _report(5, "edge density expansion", ok, "slopes " + ", ".join(f"{s:.2f}" for s in slopes))
    assert ok


def test_criterion_06_faddeeva_plasma_kernel(rep_kernel):
    bands = [float(s.note.split("=")[1]) for s in rep_kernel.series]
    ok = rep_kernel.passed and all(b <= 1.5 for b in bands)
    _report(6, "Faddeeva plasma kernel band", ok, "bands " + ", ".join(f"{b:.2f}" for b in bands))
    assert ok


def test_criterion_07_refined_d1():
    rep = run_experiment(default_spec("refined_d1", seed=SEED))
    slopes = [s.fitted_exponent for s in rep.series]
    ok = rep.passed and all(sl <= -0.8 for sl in slopes)
    _report(7, "two-term kernel expansion, d=1", ok, f"slope {slopes[0]:.2f}")
    assert ok


def test_criterion_08_pole_gaussian():
    rep = run_experiment(default_spec("saddle_pole", seed=SEED))
    worst = max(e for s in rep.series for _, e in s.samples)
    ok = rep.passed
    _report(8, "pole/Gaussian identity", ok, f"worst abs err {worst:.2e}")
    assert ok


def test_criterion_09_saddles_and_max_principle():
    rep = run_experiment(default_spec("max_principle", seed=SEED))
    # one series per quantity and tau, told apart by their notes
    fprime = max(e for s in rep.series if s.note.startswith("saddle residual") for _, e in s.samples)
    violation = max(e for s in rep.series if s.note.startswith("max principle") for _, e in s.samples)
    ok = rep.passed and fprime <= 1e-10 and violation <= 1e-12
    _report(9, "saddle residuals / max principle", ok, f"|F'| {fprime:.1e}, viol {violation:.1e}")
    assert ok


def test_criterion_10_conformal_map_expansions():
    rep = run_experiment(default_spec("phi_expansion", seed=SEED))
    series_slopes = [s.fitted_exponent for s in rep.series]
    spec_slopes = [float(s.note.split("=")[1]) for s in rep.series]
    ok = rep.passed and all(sl <= -1.2 for sl in series_slopes + spec_slopes)
    _report(
        10,
        "conformal-map expansions",
        ok,
        "slopes " + ", ".join(f"{s:.2f}" for s in series_slopes + spec_slopes),
    )
    assert ok


def test_criterion_11_pointwise_density(rep_bulk):
    series = [s for s in rep_bulk.series if "pointwise" in s.note]
    assert series
    ok = all(s.passed for s in series)
    vals = [e for s in series for _, e in s.samples]
    _report(11, "pointwise uniform density", ok, f"rel devs {vals[0]:.2e}, {vals[1]:.2e}")
    assert ok


def test_suite_runtime_budget():
    elapsed = time.time() - _T0
    print(f"acceptance suite wall time so far: {elapsed:.1f} s")
    assert elapsed < 600.0
