"""Verification harness: experiment definitions, convergence-rate fits,
and machine-readable reports.

Each experiment kind exercises one cluster of claims against the exact
kernel evaluations:

* representation_equivalence: the exact degree sum against the contour
  route on a (d, tau, n) grid, plus the tau = 0 closed form.
* trace_identity: integral of the diagonal kernel against the point
  count C(n+d-1, d), by an exact Gauss-Hermite product rule folded by
  symmetry, for every d.
* bulk_limit: decay of the bulk deviation at half-radius, plus the
  pointwise uniform-density values at |z| = 0.5 and |z| = 1 for tau = 0.
* edge_density: two-term erfc density profile, residual decay rate.
* edge_kernel: Faddeeva plasma kernel, O(1/sqrt n) residual band.
* refined_d1: the normalized kernel at normal displacements against its
  two-term expansion saddle.asymptotic_I_tau, residual decay rate.
* saddle_pole: the pole/Gaussian model integral identity.
* max_principle: saddle residuals max |F'| and the dominant-saddle
  inequality, one series each per tau.
* phi_expansion: conformal-map value at the pole against its printed
  expansions, residual decay rates; one code path for every tau.

Every runner with an n grid takes its (d, tau) cells from _cells: the
ModelParams per n (less the n that a d >= 2 cap skips, which the series
note names) and the cell's seeded edge points.

Each (d, tau, n) cell evaluates its exact kernels with one
kernel_exact_log_many call (rho1_density over a (B, d) array of points;
normalized_kernel_many for the edge kernels), and its contour values
with one batched call, which runs the cell's pairs in row blocks.

spec.settings holds the inputs a configuration can set (pairs, points,
frames, grid_frames, grid_size), each a count of at least 1; the fixed
inputs are the module constants below _DEFAULTS, and the acceptance
bounds (spec.tolerances) are the kind's entry in _DEFAULTS.  A series
that fits no rate carries fitted_exponent None; one whose n grid leaves
it no sample raises UsageError rather than pass having checked nothing.

All randomness flows from counter-based generators keyed off the
experiment seed, so a fixed seed reproduces reports byte for byte.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from io import StringIO
from typing import Sequence

import numpy as np

from .contour import (
    _invariants,
    _invariants_of_hat,
    _phase_t,
    _saddles_t,
    kernel_via_contour_log_many,
    max_principle_check,
    normalized_integral_many,
)
from .errors import DegenerateFitError, DomainError, UsageError
from .geometry import edge_point_sample
from .kernel import (
    ModelParams,
    kernel_exact_log_many,
    kernel_tau0_closed_log,
    rho1_density,
)
from .predictors import (
    bulk_prediction,
    edge_density_terms,
    edge_kernel_prediction,
    normalized_kernel_many,
    dot_product,
)
from .saddle import (
    _edge_values,
    asymptotic_I_tau,
    delta_pm,
    phi_at_pole,
    phi_lemma_two_term,
    pole_gaussian_integral,
    sinh_ratio,
)
from .special import stable_sum_arrays

__all__ = [
    "DEFAULT_SEED",
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "SeriesResult",
    "ConvergenceReport",
    "default_spec",
    "run_experiment",
    "fit_convergence_rate",
    "emit_report",
]

# The seed of every experiment unless a config or a caller gives another.
DEFAULT_SEED = 20260401

EXPERIMENT_KINDS = (
    "representation_equivalence",
    "trace_identity",
    "bulk_limit",
    "edge_density",
    "edge_kernel",
    "refined_d1",
    "saddle_pole",
    "max_principle",
    "phi_expansion",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: parameter grid, n grid, seed and counts; its bounds are the kind's."""

    kind: str
    params_grid: tuple[tuple[int, float], ...]
    n_grid: tuple[int, ...]
    seed: int
    settings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise DomainError("n_grid must be strictly increasing")
        if self.seed < 0:  # the generators' keys are unsigned
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        for key, val in self.settings.items():  # a count of 0 would check nothing
            if not val >= 1:
                raise DomainError(f"{key} must be >= 1, got {val}")

    @property
    def tolerances(self) -> dict[str, float]:
        return dict(_DEFAULTS[self.kind]["tolerances"])


@dataclass(frozen=True)
class SeriesResult:
    """One (d, tau) series of (n, error) samples with its fitted rate.

    fitted_exponent is None where no rate is fitted, or where the errors
    agree exactly and there is no rate to fit.
    """

    d: int
    tau: float
    samples: tuple[tuple[int, float], ...]
    passed: bool
    fitted_exponent: float | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if not self.samples:  # a series that checked nothing must not pass
            raise UsageError(f"the d={self.d}, tau={self.tau} series has no samples on its n grid")
        # runners compute with numpy; reports carry plain Python numbers
        object.__setattr__(self, "samples", tuple((int(n), float(err)) for n, err in self.samples))
        if self.fitted_exponent is not None:
            object.__setattr__(self, "fitted_exponent", float(self.fitted_exponent))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    seed: int
    series: tuple[SeriesResult, ...]
    passed: bool


# ----------------------------------------------------------------------
# Defaults
# ----------------------------------------------------------------------

_DEFAULTS: dict[str, dict] = {
    "representation_equivalence": dict(
        params_grid=tuple((d, t) for d in (1, 2, 3) for t in (0.0, 0.3, 0.7)),
        n_grid=(2, 4, 8, 16),
        tolerances={"max_error": 1e-8, "closed_form": 1e-12},
        settings={"pairs": 20},
    ),
    "trace_identity": dict(
        params_grid=tuple((d, t) for d in (1, 2) for t in (0.0, 0.3, 0.7)),
        n_grid=(2, 4, 8, 16),
        tolerances={"rel_error": 1e-11},
    ),
    "bulk_limit": dict(
        params_grid=tuple((d, t) for d in (1, 2) for t in (0.0, 0.25)),
        n_grid=(256, 1024),
        tolerances={"ratio": 0.25, "pointwise_half": 0.02, "pointwise_edge": 0.05},
    ),
    "edge_density": dict(
        params_grid=tuple((d, t) for d in (1, 2) for t in (0.0, 0.5)),
        n_grid=(256, 1024, 4096),
        tolerances={"exponent": -0.8, "leading_factor": 1.5},
    ),
    "edge_kernel": dict(
        params_grid=tuple((d, t) for d in (1, 2, 3) for t in (0.0, 0.5)),
        n_grid=(64, 256, 1024),
        tolerances={"band": 1.5},
        settings={"points": 10},
    ),
    "refined_d1": dict(
        params_grid=((1, 0.5),),
        n_grid=(1024, 4096),
        tolerances={"exponent": -0.8},
    ),
    # saddle_pole fixes n in its two cases, and max_principle samples frames:
    # neither has an n grid.
    "saddle_pole": dict(
        params_grid=((1, 0.0),),
        n_grid=(),
        tolerances={"fp_floor": 1e-13},
    ),
    "max_principle": dict(
        params_grid=((1, 0.3), (1, 0.5), (1, 0.7)),
        n_grid=(),
        tolerances={"fprime": 1e-10, "violation": 1e-12},
        settings={"frames": 50, "grid_frames": 10, "grid_size": 10_000},
    ),
    "phi_expansion": dict(
        params_grid=((1, 0.0), (1, 0.4), (1, 0.7)),
        n_grid=(100, 1000, 10_000),
        tolerances={"exponent": -1.2},
    ),
}

# Fixed inputs of the experiments.  Kernel arguments are drawn from the
# disk of this radius (representation_equivalence).
_SAMPLE_RADIUS = 1.5
# Boundary points per (d, tau) cell and offsets lambda along the normal.
_DENSITY_POINTS = 2
_DENSITY_LAMBDAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
# refined_d1 displaces both arguments along the normal: u nu and v nu.
_REFINED_POINTS = 2
_REFINED_U = 0.3 + 0.1j
_REFINED_V = -0.2j
# Endpoints of the real path of the pole/Gaussian integral.
_POLE_PATH = (-1.0, 1.0)
# u = v = lambda nu in the phi specialization check.  The synthetic
# displacements scale as n^(-1/2), which keeps the full margin of the
# residual rate -3/2 against the -1.2 pass line.
_PHI_LAMBDA = 0.6
# The largest n these kinds run at d >= 2; _cells skips the larger n of the
# grid there, and the series note names them (skipped_n=...).
_N_CAP_AT_D2 = {"edge_density": 1024, "trace_identity": 8}


def default_spec(kind: str, seed: int = DEFAULT_SEED, **overrides) -> ExperimentSpec:
    """The built-in specification of one experiment kind, seed applied, with
    what a run varies overridden: params_grid, n_grid and some settings."""
    if kind not in _DEFAULTS:
        raise UsageError(f"unknown experiment kind {kind!r}")
    if not overrides.keys() <= {"params_grid", "n_grid", "settings"}:
        raise UsageError(f"only params_grid, n_grid and settings can be overridden, got {sorted(overrides)}")
    base = {k: v for k, v in _DEFAULTS[kind].items() if k != "tolerances"}
    settings = {**base.get("settings", {}), **overrides.pop("settings", {})}
    return ExperimentSpec(kind=kind, seed=seed, **{**base, **overrides, "settings": settings})


def fit_convergence_rate(samples: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log error against log n."""
    if len(samples) < 2:
        raise UsageError("need at least two samples to fit a rate")
    ns = np.array([s[0] for s in samples], dtype=float)
    errs = np.array([s[1] for s in samples], dtype=float)
    if np.any(errs <= 0.0):
        raise DegenerateFitError("zero or negative errors: exact agreement, no rate to fit")
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


def _rate_within(samples: Sequence[tuple[int, float]], limit: float) -> tuple[float | None, bool]:
    """Fitted rate and whether it is at most limit; exact agreement has no rate (None) and passes."""
    try:
        slope = fit_convergence_rate(samples)
    except DegenerateFitError:
        return None, True
    return slope, slope <= limit


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=list(stream) + [0] * (4 - len(stream))))


def _cells(spec: ExperimentSpec, stride: int = 0, points: int = 0):
    """Each (d, tau) cell of spec.params_grid: d, tau, the ModelParams of
    each n the cell runs, points edge points (point i drawn from seed
    spec.seed + stride d + i), and a note naming the n that the kind's
    d >= 2 cap skips, or ""."""
    cap = _N_CAP_AT_D2.get(spec.kind, math.inf)
    for d, tau in spec.params_grid:
        skipped = [n for n in spec.n_grid if d > 1 and n > cap]
        grid = [ModelParams(d=d, tau=tau, n=n) for n in spec.n_grid if n not in skipped]
        edges = [edge_point_sample(ModelParams(d=d, tau=tau, n=2), spec.seed + stride * d + i) for i in range(points)]
        yield d, tau, grid, edges, f"skipped_n={','.join(map(str, skipped))}" if skipped else ""


# ----------------------------------------------------------------------
# Experiment bodies
# ----------------------------------------------------------------------


def _run_representation_equivalence(spec: ExperimentSpec) -> list[SeriesResult]:
    pairs = int(spec.settings["pairs"])
    radius = _SAMPLE_RADIUS
    tol = spec.tolerances["max_error"]
    tol_closed = spec.tolerances["closed_form"]

    def disc_points(rng: np.random.Generator, count: int) -> np.ndarray:
        """count points uniform in |c| <= radius: the accepted (re, im) draws of a scalar rejection loop, in order."""
        points = np.empty(0, dtype=complex)
        while points.size < count:
            draws = rng.uniform(-radius, radius, (count, 2))
            points = np.append(points, draws.view(complex)[np.hypot(draws[:, 0], draws[:, 1]) <= radius, 0])
        return points[:count]

    results = []
    for d, tau, grid, _, _ in _cells(spec):
        samples = []
        closed_worst = 0.0
        passed = True
        for params in grid:
            rng = _rng(spec.seed, d, int(tau * 10), params.n)
            rn = math.sqrt(params.n)
            # Draws are the kernel arguments; the contour identity sees them
            # as sqrt(n) times the droplet coordinates Z/sqrt(n).
            big_zs, big_ws = disc_points(rng, 2 * pairs * d).reshape(pairs, 2, d).transpose(1, 0, 2)
            exacts = kernel_exact_log_many(params, big_zs, big_ws)
            vias = kernel_via_contour_log_many(params, big_zs / rn, big_ws / rn)
            worst = max(abs(via.ratio_to(exact) - 1.0) for via, exact in zip(vias, exacts))
            if tau == 0.0:
                closed = (kernel_tau0_closed_log(params, z, w) for z, w in zip(big_zs, big_ws))
                closed_worst = max(closed_worst, *(abs(c.ratio_to(e) - 1.0) for c, e in zip(closed, exacts)))
            samples.append((params.n, worst))
            passed = passed and worst <= tol
        if tau == 0.0:
            passed = passed and closed_worst <= tol_closed
        note = f"closed_form_max={closed_worst:.3e}" if tau == 0.0 else ""
        results.append(SeriesResult(d=d, tau=tau, samples=samples, passed=passed, note=note))
    return results


def _run_trace_identity(spec: ExperimentSpec) -> list[SeriesResult]:
    results = []
    for d, tau, grid, _, skipped in _cells(spec):
        samples = [(p.n, abs(_trace_gauss_hermite(p) - p.point_count) / p.point_count) for p in grid]
        passed = all(err <= spec.tolerances["rel_error"] for _, err in samples)
        results.append(SeriesResult(d=d, tau=tau, samples=samples, passed=passed, note=skipped))
    return results


def _trace_gauss_hermite(params: ModelParams) -> float:
    """Integral of K_n(z, z) over C^d by a folded Gauss-Hermite product rule.

    Per coordinate, z = s / sqrt(1 - tau) + i t / sqrt(1 + tau) turns the
    weight omega(z) into exp(-s^2 - t^2), and K_n(z, z) / omega(z) is a
    polynomial of degree <= 2(n - 1) in each of s and t.  The n-point rule
    in each of the 2d real variables is exact to degree 2n - 1, so the sum
    is C(n+d-1, d) up to rounding.  phi_j(-z) = (-1)^j phi_j(z) and
    phi_j(conj z) = conj phi_j(z) make K_n(z, z) even in every real
    variable, so only the nodes >= 0 are kept, each nonzero one at twice
    its weight: ceil(n/2)^(2d) diagonal kernel values instead of n^(2d),
    all from one batched kernel_exact_log_many call.
    """
    tau, n = params.tau, params.n
    s, w = _hermite_rule(n)
    # hermgauss returns symmetric nodes, with an exact 0.0 in the middle for odd n
    s, w = s[n // 2 :], w[n // 2 :]
    log_w = np.log(w) + s * s + np.where(s > 0.0, math.log(2.0), 0.0)
    nodes = (s[:, None] / math.sqrt(1.0 - tau) + 1j * s[None, :] / math.sqrt(1.0 + tau)).ravel()
    node_log_w = (log_w[:, None] + log_w[None, :]).ravel() - 0.5 * math.log1p(-tau * tau)
    idx = np.array(list(itertools.product(range(nodes.size), repeat=params.d)))
    points = nodes[idx]
    values = kernel_exact_log_many(params, points, points)
    logs = np.sum(node_log_w[idx], axis=1) + np.array([k.log_mag for k in values])
    return stable_sum_arrays(logs, np.array([k.phase for k in values])).value.real


@functools.lru_cache(maxsize=16)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Hermite rule, computed once per n; shared, so read-only."""
    for a in (rule := np.polynomial.hermite.hermgauss(n)):
        a.setflags(write=False)
    return rule


def _run_bulk_limit(spec: ExperimentSpec) -> list[SeriesResult]:
    results = []
    for d, tau, grid, (base,), _ in _cells(spec, 17, 1):
        z_half = 0.5 * base.z
        rng = _rng(spec.seed, 4, d, int(tau * 100))
        us, vs = [np.zeros(d, dtype=complex)], [np.zeros(d, dtype=complex)]
        for _ in range(2):
            us.append(rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d))
            vs.append(rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d))
        samples = []
        for params in grid:
            worst_log = -math.inf
            devs = normalized_integral_many(params, [z_half] * len(us), us, vs, include_residue=False)
            for u, v, dev in zip(us, vs, devs):
                scale = abs(bulk_prediction(d, u, v))
                worst_log = max(worst_log, dev.log_mag + math.log(scale))
            samples.append((params.n, worst_log))
        # ratio criterion in log form: err(n_max) <= ratio * err(n_min)
        passed = samples[-1][1] - samples[0][1] <= math.log(spec.tolerances["ratio"])
        note = "samples carry log_e of the bulk deviation"
        results.append(SeriesResult(d=d, tau=tau, samples=samples, passed=passed, note=note))
    # pointwise uniform-density values, d = 2, tau = 0
    params = ModelParams(d=2, tau=0.0, n=1024)
    rng = _rng(spec.seed, 4, 99)
    direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    direction /= math.sqrt(sum(abs(direction) ** 2))
    cases = ((0.5, 2.0 / math.pi**2, "pointwise_half"), (1.0, 1.0 / math.pi**2, "pointwise_edge"))
    points = np.array([math.sqrt(params.n) * (radius * direction) for radius, _, _ in cases])
    checks = []
    for (radius, target, tol_key), rho in zip(cases, rho1_density(params, points)):
        val = params.n**2 * rho
        rel = abs(val - target) / target
        checks.append((radius, rel, rel <= spec.tolerances[tol_key]))
    results.append(
        SeriesResult(
            d=2,
            tau=0.0,
            samples=[(params.n, c[1]) for c in checks],
            passed=all(c[2] for c in checks),
            note="pointwise density at |z| = 0.5 and 1.0 (relative deviations)",
        )
    )
    return results


def _run_edge_density(spec: ExperimentSpec) -> list[SeriesResult]:
    results = []
    for d, tau, grid, edges, skipped in _cells(spec, 101, _DENSITY_POINTS):
        samples = []
        lead_ok, note = False, "leading-order check needs n=1024, which the n grid lacks"
        offsets = list(itertools.product(edges, _DENSITY_LAMBDAS))
        for params in grid:
            n = params.n
            rn = math.sqrt(n)
            rhos = rho1_density(params, np.array([rn * ep.z + lam * ep.normal for ep, lam in offsets]))
            worst = lead_err = second_scale = 0.0
            for (ep, lam), rho in zip(offsets, rhos):
                val = n**d * rho
                lead, second = edge_density_terms(params, ep, lam)
                pred = lead + second
                worst = max(worst, abs(val - pred))
                lead_err = max(lead_err, abs(val - (pred - second)))
                second_scale = max(second_scale, abs(second))
            samples.append((n, worst))
            if n == 1024:
                lead_ok = lead_err <= spec.tolerances["leading_factor"] * second_scale
                note = "" if lead_ok else "leading-order check failed at n=1024"
        slope, rate_ok = _rate_within(samples, spec.tolerances["exponent"])
        results.append(
            SeriesResult(
                d=d,
                tau=tau,
                samples=samples,
                fitted_exponent=slope,
                passed=rate_ok and lead_ok,
                note="; ".join(filter(None, (note, skipped))),
            )
        )
    return results


def _run_edge_kernel(spec: ExperimentSpec) -> list[SeriesResult]:
    n_points = int(spec.settings["points"])
    results = []
    for d, tau, grid, edges, _ in _cells(spec, 211, n_points):
        rng = _rng(spec.seed, 6, d, int(tau * 10))
        u = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        u *= 0.8 / math.sqrt(float(np.sum(np.abs(u) ** 2)))
        v = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        v *= 0.6 / math.sqrt(float(np.sum(np.abs(v) ** 2)))
        envelope = 1.0 + float(np.sum(np.abs(u) ** 2) + np.sum(np.abs(v) ** 2))
        preds = [edge_kernel_prediction(ep, u, v) for ep in edges]
        shifts = [dot_product(u, ep.normal) + dot_product(ep.normal, v) for ep in edges]
        scales = [envelope * abs(np.exp(-0.5 * s * s)) for s in shifts]
        qs = []
        for params in grid:
            samps = normalized_kernel_many(params, edges, [u] * len(edges), [v] * len(edges))
            vals = (abs(samp.L - pred) * math.sqrt(params.n) / scale for samp, pred, scale in zip(samps, preds, scales))
            qs.append((params.n, max(vals)))
        band = max(q for _, q in qs) / min(q for _, q in qs)
        passed = band <= spec.tolerances["band"]
        results.append(
            SeriesResult(
                d=d,
                tau=tau,
                samples=qs,
                passed=passed,
                note=f"band_ratio={band:.3f}",
            )
        )
    return results


def _run_refined_d1(spec: ExperimentSpec) -> list[SeriesResult]:
    results = []
    for d, tau, grid, edges, _ in _cells(spec, 307, _REFINED_POINTS):
        us = [_REFINED_U * ep.normal for ep in edges]
        vs = [_REFINED_V * ep.normal for ep in edges]
        samples = []
        for params in grid:
            samps = normalized_kernel_many(params, edges, us, vs)
            errs = (abs(s.L - asymptotic_I_tau(params, s.z.eta, *delta_pm(params, s.z, s.u, s.v))) for s in samps)
            samples.append((params.n, max(errs)))
        slope, passed = _rate_within(samples, spec.tolerances["exponent"])
        results.append(SeriesResult(d=d, tau=tau, samples=samples, fitted_exponent=slope, passed=passed))
    return results


def _run_saddle_pole(spec: ExperimentSpec) -> list[SeriesResult]:
    l1, l2 = _POLE_PATH
    fp_floor = spec.tolerances["fp_floor"]
    cases = [(-0.4j, 50), (0.2 - 0.3j, 200)]
    samples = []
    passed = True
    for p, n in cases:
        lhs, rhs = pole_gaussian_integral(n, p, l1, l2)
        err = abs(lhs - rhs)
        envelope = 10.0 * (math.exp(-n * l1 * l1) + math.exp(-n * l2 * l2)) / n
        bound = envelope + fp_floor * max(1.0, abs(rhs))
        samples.append((n, err))
        passed = passed and err <= bound
    return [
        SeriesResult(
            d=1,
            tau=0.0,
            samples=samples,
            passed=passed,
            note="bound = analytic envelope + fp floor",
        )
    ]


def _random_frame(rng: np.random.Generator, tau: float) -> tuple[complex, complex, complex]:
    """Invariants (X, Q, P) of a random saddle frame: zhat_pm = sqrt(2 tau)
    cosh(xi_pm + i eta_pm), with xi_pm and eta_pm drawn at random."""
    xi_p = rng.uniform(0.05, 1.2)
    xi_m = rng.uniform(0.05, 1.2)
    eta_p = rng.uniform(-math.pi, math.pi)
    eta_m = rng.uniform(-math.pi, math.pi)
    scale = math.sqrt(2.0 * tau)
    return _invariants_of_hat(tau, scale * cmath.cosh(complex(xi_p, eta_p)), scale * cmath.cosh(complex(xi_m, eta_m)))


def _run_max_principle(spec: ExperimentSpec) -> list[SeriesResult]:
    frames = int(spec.settings["frames"])
    grid_frames = int(spec.settings["grid_frames"])
    grid_size = int(spec.settings["grid_size"])
    results = []
    for d, tau in spec.params_grid:
        params = ModelParams(d=d, tau=tau, n=2)
        rng = _rng(spec.seed, 8, int(tau * 10))
        worst_fprime = 0.0
        for _ in range(frames):
            inv = _random_frame(rng, tau)
            worst_fprime = max(worst_fprime, *(abs(_phase_t(tau, *inv[1:], t)[1]) for t in _saddles_t(tau, *inv)))
        worst_violation = max(
            max_principle_check(params, *_random_frame(rng, tau), grid_size) for _ in range(grid_frames)
        )
        # one series per quantity, each with its own bound; n is the frame count
        results += [
            SeriesResult(
                d=d,
                tau=tau,
                samples=((frames, worst_fprime),),
                passed=worst_fprime <= spec.tolerances["fprime"],
                note="saddle residual: max |F'(t)| at the four saddles; n = frames",
            ),
            SeriesResult(
                d=d,
                tau=tau,
                samples=((grid_frames, worst_violation),),
                passed=worst_violation <= spec.tolerances["violation"],
                note="max principle violation, negative where it holds; n = frames",
            ),
        ]
    return results


def _run_phi_expansion(spec: ExperimentSpec) -> list[SeriesResult]:
    lam = _PHI_LAMBDA
    results = []
    for d, tau, grid, _, _ in _cells(spec):
        rng = _rng(spec.seed, 9, int(tau * 10))
        series_err, spec_err = [], []
        eta = rng.uniform(0.2, 1.3)
        (hat_p, hat_m), (root_p, root_m) = _edge_values(tau, eta)
        dp_shape = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.4, 0.4))
        dm_shape = complex(rng.uniform(-0.5, -0.2), rng.uniform(-0.4, 0.4))
        base = edge_point_sample(ModelParams(d=2, tau=tau, n=2), spec.seed + 67)
        sig = sinh_ratio(tau, base.eta)
        for params in grid:  # phi_at_pole and phi_lemma_two_term read only tau from it
            n = params.n
            dp = dp_shape * n**-0.5
            dm = dm_shape * n**-0.5
            phi_s = phi_at_pole(params, *_invariants_of_hat(tau, hat_p + root_p * dp, hat_m + root_m * dm))
            phi_l = phi_lemma_two_term(params, eta, dp, dm)
            series_err.append((n, abs(phi_s - phi_l)))
            # u = v = lam * normal specialization through the pair invariants
            zp = (base.z + lam * base.normal / math.sqrt(n))[None]
            (x,), (q_sum,), (p_sum,) = _invariants(zp, zp)
            phi_sp = phi_at_pole(params, x, q_sum, p_sum)
            target = math.sqrt(2.0) * lam / math.sqrt(n) - sig**3 * lam * lam / (12.0 * n)
            spec_err.append((n, abs(1j * phi_sp - target)))
        slope_series, series_ok = _rate_within(series_err, spec.tolerances["exponent"])
        slope_spec, spec_ok = _rate_within(spec_err, spec.tolerances["exponent"])
        results.append(
            SeriesResult(
                d=d,
                tau=tau,
                samples=series_err,
                fitted_exponent=slope_series,
                passed=series_ok and spec_ok,
                # exact agreement has no rate; the note then reads -inf
                note=f"specialization_exponent={-math.inf if slope_spec is None else slope_spec:.3f}",
            )
        )
    return results


_RUNNERS = {
    "representation_equivalence": _run_representation_equivalence,
    "trace_identity": _run_trace_identity,
    "bulk_limit": _run_bulk_limit,
    "edge_density": _run_edge_density,
    "edge_kernel": _run_edge_kernel,
    "refined_d1": _run_refined_d1,
    "saddle_pole": _run_saddle_pole,
    "max_principle": _run_max_principle,
    "phi_expansion": _run_phi_expansion,
}


def run_experiment(spec: ExperimentSpec) -> ConvergenceReport:
    """Run one experiment; deterministic for a fixed spec seed."""
    series = _RUNNERS[spec.kind](spec)
    return ConvergenceReport(
        kind=spec.kind,
        seed=spec.seed,
        series=tuple(series),
        passed=all(s.passed for s in series),
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def emit_report(reports: Sequence[ConvergenceReport] | ConvergenceReport, fmt: str = "csv") -> str:
    """Serialize reports; CSV columns kind,d,tau,n,error,fitted_exponent,pass.

    A series without a fitted rate has an empty fitted_exponent field in
    the CSV and null in the JSON.
    """
    if isinstance(reports, ConvergenceReport):
        reports = [reports]
    if fmt == "csv":
        out = StringIO()
        out.write("kind,d,tau,n,error,fitted_exponent,pass\n")
        for rep in reports:
            for s in rep.series:
                for n, err in s.samples:
                    out.write(
                        f"{rep.kind},{s.d},{s.tau!r},{n},{err!r},"
                        f"{'' if s.fitted_exponent is None else repr(s.fitted_exponent)},"
                        f"{str(s.passed).lower()}\n"
                    )
        return out.getvalue()
    if fmt == "json":
        payload = [
            {
                "kind": rep.kind,
                "seed": rep.seed,
                "passed": rep.passed,
                "series": [
                    {
                        "d": s.d,
                        "tau": s.tau,
                        "fitted_exponent": s.fitted_exponent,
                        "passed": s.passed,
                        "note": s.note,
                        "samples": [[n, err] for n, err in s.samples],
                    }
                    for s in rep.series
                ],
            }
            for rep in reports
        ]
        return json.dumps(payload, indent=2)
    raise UsageError(f"unknown report format {fmt!r}")
