"""Complex error functions and log-magnitude accumulation."""

import cmath
import math

import numpy as np
import pytest

from edgedpp.errors import DomainError, UsageError
from edgedpp.special import (
    LogMagnitudePhase,
    erfc_complex,
    erfcx_complex,
    gauss_legendre,
    stable_sum_arrays,
)

from oracles import (
    dd_sum_log_phase,
    erfc_one_maclaurin,
    erfc_series_cdd,
    erfcx_asymptotic,
    erfcx_asymptotic_cdd,
)

# Oracle values, frozen from the double-double computations in oracles.py.
ERFC_ONE = 0.15729920705028513  # == erfc_one_maclaurin()
ERFCX_HUNDRED = 0.005641613782989433  # == erfcx_asymptotic(100.0)


def test_erfc_at_zero():
    assert erfc_complex(0.0) == 1.0


def test_erfc_reflection_identity():
    assert abs(erfc_complex(0.5) + erfc_complex(-0.5) - 2.0) <= 1e-14


def test_erfc_one_against_series_oracle():
    assert erfc_one_maclaurin() == ERFC_ONE
    assert abs(erfc_complex(1.0) - ERFC_ONE) <= 1e-13 * ERFC_ONE


def test_erfcx_at_zero():
    assert erfcx_complex(0.0) == 1.0


def test_erfcx_cross_check_with_erfc():
    lhs = erfcx_complex(0.3) * math.exp(-0.09)
    assert abs(lhs - erfc_complex(0.3)) <= 1e-12 * abs(lhs)


def test_erfcx_large_argument_against_asymptotic_oracle():
    assert erfcx_asymptotic(100.0) == ERFCX_HUNDRED
    assert abs(erfcx_complex(100.0) - ERFCX_HUNDRED) <= 1e-12 * ERFCX_HUNDRED


def test_erfc_conjugate_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) > 5:
            continue
        a = erfc_complex(np.conj(z))
        b = np.conj(erfc_complex(z))
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def test_erfc_real_range_and_monotone():
    # On [-6, 6]; at the far left 2 - erfc(6) rounds to 2.0 exactly (the
    # gap is below ulp(2)), so the range check is half-open there and
    # strict monotonicity is asserted where doubles can resolve it.
    xs = np.linspace(-6.0, 6.0, 241)
    vals = [erfc_complex(float(x)).real for x in xs]
    assert all(0.0 < v <= 2.0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    inner = [v for x, v in zip(xs, vals) if -5.0 <= x <= 5.0]
    assert all(b < a for a, b in zip(inner, inner[1:]))


def test_erfcx_relates_to_erfc_everywhere_representable():
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        zz = z * z
        if abs(zz.real) > 600:
            continue
        lhs = erfcx_complex(z) * np.exp(-zz)
        rhs = erfc_complex(z)
        if not (np.isfinite(lhs) and abs(rhs) > 1e-280):
            continue
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_erfc_strip_region_against_dd_series():
    # the series regime: |Re z| <= 1.4, any moderate |Im z|
    for x in np.linspace(-1.4, 1.4, 8):
        for y in np.linspace(0.0, 7.9, 9):
            z = complex(x, y)
            ref = erfc_series_cdd(z)
            got = erfc_complex(z)
            assert abs(got - ref) <= 1e-13 * abs(ref), z


def test_erfc_cf_region_against_dd_series():
    # the continued-fraction regime, validated by the independent series
    # in double-double; the series cancellation burns 2 (Re z)^2 / ln 10
    # of the oracle's ~31 digits, so the comparison stops at Re z = 4.4
    for x in np.linspace(1.5, 4.4, 8):
        for y in np.linspace(0.0, 6.0, 7):
            z = complex(x, y)
            if abs(z) > 8:
                continue
            ref = erfc_series_cdd(z)
            got = erfc_complex(z)
            assert abs(got - ref) <= 1e-13 * abs(ref), z


def test_erfcx_far_field_against_dd_asymptotic():
    for x in np.linspace(0.0, 10.0, 6):
        for y in np.linspace(-10.0, 10.0, 7):
            z = complex(x, y)
            if abs(z) < 6.5:
                continue
            ref = erfcx_asymptotic_cdd(z)
            got = erfcx_complex(z)
            assert abs(got - ref) <= 1e-12 * abs(ref), z


def test_erfcx_strip_large_imaginary_part_against_mpmath():
    # |Re z| <= 1.4 with |Im z| >= 6: there exp(z^2) underflows while
    # 1 - erf(z) overflows, so the scaled value cannot come from the series
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in np.linspace(-1.4, 1.4, 8):
            for y in (6.0, 9.5, 27.0, 60.0, 100.0, -6.0, -27.0, -100.0):
                z = complex(x, y)
                zm = mpmath.mpc(z)
                ref = complex(mpmath.exp(zm * zm) * mpmath.erfc(zm))
                assert abs(erfcx_complex(z) - ref) <= 1e-13 * abs(ref), z


def test_erfc_and_erfcx_never_return_nan():
    # a finite argument gives a number; only a value past the double range
    # raises OverflowError, as math.exp does: |erfc z| ~ e^(y^2 - x^2) and,
    # for x < 0, |erfcx z| ~ e^(x^2 - y^2)
    for x in np.linspace(-40.0, 40.0, 33):
        for y in np.linspace(-40.0, 40.0, 33):
            z = complex(x, y)
            for f, log_size in ((erfc_complex, y * y - x * x), (erfcx_complex, x * x - y * y)):
                try:
                    val = f(z)
                except OverflowError:
                    assert log_size > 700.0, (f.__name__, z)
                    continue
                assert not cmath.isnan(val), (f.__name__, z)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("nan"))])
def test_erfc_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        erfc_complex(bad)
    with pytest.raises(DomainError):
        erfcx_complex(bad)


def test_stable_sum_singleton():
    out = stable_sum_arrays(np.array([0.0]), np.array([1.0 + 0.0j]))
    assert out.log_mag == 0.0 and out.phase == 1.0


def test_stable_sum_exact_cancellation():
    out = stable_sum_arrays(np.array([700.0, 700.0]), np.array([1.0 + 0.0j, -1.0 + 0.0j]))
    assert out.log_mag <= 700.0 + math.log(1e-15)


def test_stable_sum_against_dd_oracle():
    rng = np.random.default_rng(42)
    logs = rng.uniform(-50.0, 50.0, 1000)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 1000))
    out = stable_sum_arrays(logs, phases)
    ref = dd_sum_log_phase(logs, phases)
    got = out.value
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_stable_sum_permutation_stable():
    rng = np.random.default_rng(7)
    logs = rng.uniform(-50.0, 50.0, 1000)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 1000))
    a = stable_sum_arrays(logs, phases)
    for perm_seed in (1, 2):
        order = np.random.default_rng(perm_seed).permutation(1000)
        b = stable_sum_arrays(logs[order], phases[order])
        assert abs(b.ratio_to(a) - 1.0) <= 1e-12


def test_stable_sum_drops_only_exact_zeros():
    # logs spanning 1000 nats underflow part of the shifted terms to exactly
    # zero; the sum must match the double-double sum of the live terms alone.
    # The largest log is 0, so the log/phase form of the result costs only a
    # few eps of |sum| and the comparison sees the summation error.
    for size in (2, 50, 4000, 65536):
        rng = np.random.default_rng(11)
        logs = rng.uniform(-1000.0, 0.0, size)
        logs[0] = 0.0
        logs[1] = -900.0
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size))
        live = np.exp(logs) > 0.0
        assert np.count_nonzero(~live) >= 1
        ref = dd_sum_log_phase(logs[live], phases[live])
        l1 = float(np.sum(np.exp(logs[live])))
        # Error budget in eps * L1: exp and the phase product round each term
        # by at most ~4.5 eps; numpy's pairwise sum passes a term through at
        # most log2(N) + 17 additions of eps/2 each (leaves of four 16-term
        # accumulators, then one add per halving); the log/phase form costs
        # ~4 eps of |sum| <= L1.  (log2(N) + 34) / 2 <= log2(N) + 16 for
        # N >= 4, and N = 2 takes a single addition.
        bound = (math.log2(size) + 16) * np.finfo(float).eps * l1
        out = stable_sum_arrays(logs, phases)
        assert abs(out.value - ref) <= bound


def test_stable_sum_rejects_empty():
    with pytest.raises(UsageError):
        stable_sum_arrays(np.array([]), np.array([]))


def test_log_magnitude_phase_invariants():
    v = LogMagnitudePhase.from_complex(3.0 - 4.0j)
    assert abs(abs(v.phase) - 1.0) <= 1e-14
    assert abs(v.value - (3.0 - 4.0j)) <= 1e-14 * 5.0
    z = LogMagnitudePhase.from_complex(0.0)
    assert z.log_mag == -math.inf and z.value == 0.0
    prod = v * LogMagnitudePhase.from_complex(2.0j)
    assert abs(prod.value - (3.0 - 4.0j) * 2.0j) <= 1e-13 * 10.0


def test_gauss_legendre_is_cached_and_read_only():
    x, w = gauss_legendre(40)
    ref_x, ref_w = np.polynomial.legendre.leggauss(40)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert gauss_legendre(40)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
