"""The benchmark workloads: inputs from a seed, timed loop, output checks.

contour_offdiag is a sweep over a fixed (d, tau, n) grid.  A grid cell holds
``k`` seeded point pairs; one round evaluates one pair of every cell, so
every round does the same mix of work and a run measures whole rounds.
``verify_all`` runs ``edgedpp verify <kind>`` in-process for each of the
nine kinds, which is what ``verify all`` does in one command.

An operation is one distinct input: a seeded point pair, or one
``verify <kind>`` command.  A run repeats its operations for as long as it
measures, but counts each once, so ``attempted`` and ``failed`` depend on
the seed alone and not on how many repeats fit in the time.  An operation
fails when it raises an ``EdgeDppError`` or its output fails a check.
``correct`` turns false only when an output is wrong (a check failed, or a
repeat gave another value or outcome); a typed refusal is a failure, not a
wrong output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from edgedpp import cli, contour, kernel
from edgedpp.errors import EdgeDppError
from edgedpp.harness import EXPERIMENT_KINDS
from edgedpp.kernel import ModelParams

from spans import Tracer

ROUTE_GAP_TOL = 1e-8  # exact vs contour, relative
CLOSED_FORM_TOL = 1e-12  # exact vs the tau = 0 closed form, relative

OFFDIAG_TAUS = (0.0, 1e-3, 0.5)


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0  # distinct operations
    failed: int = 0  # distinct operations that failed
    correct: bool = True
    completed: int = 0  # timed evaluations that returned, whatever their verdict
    latencies: list[float] = field(default_factory=list)  # seconds per timed unit
    pass_walls: list[float] = field(default_factory=list)  # seconds per round or pass
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def wrong(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _edge_point(rng: np.random.Generator, d: int, tau: float) -> np.ndarray:
    """Seeded droplet boundary point: Re z = A cos(t) p, Im z = A^-1 sin(t) q.

    A = sqrt((1+tau)/(1-tau)) and p, q are random real unit vectors.
    """
    p = rng.standard_normal(d)
    p /= np.linalg.norm(p)
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    t = rng.uniform(0.0, math.pi / 2)
    axis = math.sqrt((1.0 + tau) / (1.0 - tau))
    return axis * math.cos(t) * p + 1j * math.sin(t) / axis * q


def _offset(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, d) + 1j * rng.uniform(-1.0, 1.0, d)
    return x * (rng.uniform(0.2, 1.0) / np.linalg.norm(x))


@dataclass
class Cell:
    params: ModelParams
    pairs: list[tuple[np.ndarray, np.ndarray]]  # unscaled (z, w)


def offdiag_cells(seed: int, tiny: bool) -> list[Cell]:
    """Near-edge pairs z_edge + u/sqrt(n), z_edge + v/sqrt(n), same count per cell."""
    dims, ns, count = ((1, 2), (16, 64), 2) if tiny else ((1, 2, 3), (256, 1024, 4096), 8)
    cells = []
    for d in dims:
        for ti, tau in enumerate(OFFDIAG_TAUS):
            for n in ns:
                if d == 3 and n == 4096:
                    continue  # too costly for a desk-scale run
                rng = np.random.default_rng([seed, d, ti, n])
                rn = math.sqrt(n)
                pairs = []
                for _ in range(count):
                    z_edge = _edge_point(rng, d, tau)
                    pairs.append((z_edge + _offset(rng, d) / rn, z_edge + _offset(rng, d) / rn))
                cells.append(Cell(ModelParams(d=d, tau=tau, n=n), pairs))
    return cells


# ----------------------------------------------------------------------
# contour_offdiag
# ----------------------------------------------------------------------

TRACE_ROUNDS = 40  # traced rounds: every pair of a cell five times


# The timed call looks its target up on the module at call time, so the
# tracer's wrappers see it.
def _contour(params: ModelParams, z, w):
    return contour.kernel_via_contour_log(params, z, w)


def _scaled(params: ModelParams, pair):
    """The pair in the exact route's coordinates, sqrt(n) times the contour's."""
    rn = math.sqrt(params.n)
    return rn * pair[0], rn * pair[1]


def _closed_form_tol(z: np.ndarray, w: np.ndarray) -> float:
    """CLOSED_FORM_TOL, or the rounding floor of the log-domain sums if larger.

    Both routes carry log magnitudes as large as (|z|^2 + |w|^2)/2 and lose
    about eps times that in the result: against a 40-digit reference each
    route was off by up to 2.4 eps (|z|^2 + |w|^2) at n = 4096, so 1e-12
    holds up to n ~ 256 and the floor is 1.5e-11 at n = 4096.
    """
    size = float(np.sum(np.abs(z) ** 2) + np.sum(np.abs(w) ** 2))
    return max(CLOSED_FORM_TOL, 8.0 * np.finfo(float).eps * size)


def _check_contour(params: ModelParams, pair, value) -> list[tuple[str, float | None, float]]:
    """(label, relative gap or None when unchecked, tolerance) items for one value."""
    big_z, big_w = _scaled(params, pair)
    try:
        exact = kernel.kernel_exact_log(params, big_z, big_w)
    except EdgeDppError:
        return [("route_gap", None, ROUTE_GAP_TOL)]
    items = [("route_gap", abs(value.ratio_to(exact) - 1.0), ROUTE_GAP_TOL)]
    if params.tau == 0.0:
        try:
            gap = abs(exact.ratio_to(kernel.kernel_tau0_closed_log(params, big_z, big_w)) - 1.0)
        except EdgeDppError:
            gap = None
        items.append(("closed_form_gap", gap, _closed_form_tol(big_z, big_w)))
    return items


def _prepare(seed: int, tiny: bool) -> list[Cell]:
    """Input generation plus one untimed warm-up evaluation per cell."""
    cells = offdiag_cells(seed, tiny)
    for cell in cells:
        try:
            _contour(cell.params, *cell.pairs[0])
        except EdgeDppError:
            pass  # a refusal here is counted when the timed loop meets it
    return cells


class _Ledger:
    """Per-pair first value or first refusal, keyed (cell, pair), and the
    pairs whose repeats disagreed with the first evaluation."""

    def __init__(self) -> None:
        self.values: dict[tuple, object] = {}
        self.errors: dict[tuple, str] = {}
        self.evaluations = 0
        self.changed: set[tuple] = set()

    def record(self, key: tuple, value, error: str | None) -> None:
        self.evaluations += 1
        if error is not None:
            if key in self.values:
                self.changed.add(key)
            self.errors.setdefault(key, error)
        elif key in self.errors:
            self.changed.add(key)
        elif key not in self.values:
            self.values[key] = value
        elif self.values[key] != value:
            self.changed.add(key)


def _run_rounds(cells: list[Cell], ledger: _Ledger, out: Outcome,
                rounds: int | None, seconds: float, tracer: Tracer | None) -> float:
    """Whole rounds until ``seconds`` pass (or exactly ``rounds``); returns wall time.

    A timed run makes at least as many rounds as a cell has pairs, so every
    pair is evaluated.
    """
    start = perf_counter()
    least = len(cells[0].pairs)
    r = 0
    while (r < rounds) if rounds is not None else _another_round(start, seconds, out.pass_walls, least):
        round_start = perf_counter()
        for ci, cell in enumerate(cells):
            k = r % len(cell.pairs)
            error = value = None
            with tracer.root("eval") if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                try:
                    value = _contour(cell.params, *cell.pairs[k])
                except EdgeDppError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
            if error is None:
                out.completed += 1
                out.latencies.append(dt)
            ledger.record((ci, k), value, error)
        out.pass_walls.append(perf_counter() - round_start)
        r += 1
    return perf_counter() - start


def _another_round(start: float, seconds: float, walls: list[float], least: int) -> bool:
    """Whether one more round, at the mean round time so far, still ends within ``seconds``."""
    if len(walls) < least:
        return True
    return perf_counter() - start + sum(walls) / len(walls) <= seconds


def _check_sweep(cells: list[Cell], ledger: _Ledger, out: Outcome) -> None:
    """Output checks outside the timed section, on pair 0 of each cell, where
    the costly exact route is the reference; then count the pairs, and those
    that were refused, failed a check or changed on a repeat."""
    bad: set[tuple] = set(ledger.errors)
    worst: dict[str, float] = {}
    unchecked: dict[str, int] = {}
    for key, value in ledger.values.items():
        ci, k = key
        if k != 0:
            continue
        p = cells[ci].params
        for label, gap, tol in _check_contour(p, cells[ci].pairs[k], value):
            if gap is None:
                unchecked[label] = unchecked.get(label, 0) + 1
                continue
            worst[label] = max(worst.get(label, 0.0), gap)
            if not gap <= tol:
                bad.add(key)
                out.wrong(f"d={p.d} tau={p.tau} n={p.n} pair {k}: {label} {gap:.3e} > {tol:.1e}")
    for key in sorted(ledger.changed):
        bad.add(key)
        out.wrong(f"input {key} gave a different value or outcome when evaluated again")
    out.attempted = len(ledger.values.keys() | ledger.errors.keys())
    out.failed = len(bad)
    out.notes["worst"] = worst
    out.notes["unchecked_by_refusal"] = unchecked
    refusing = {(cells[ci].params.d, cells[ci].params.tau, cells[ci].params.n) for ci, _ in ledger.errors}
    out.notes["cells_with_refusals"] = [f"d={d} tau={t} n={n}" for d, t, n in sorted(refusing)]
    if ledger.errors:
        out.notes["first_refusal"] = next(iter(ledger.errors.values()))


# ----------------------------------------------------------------------
# verify_all
# ----------------------------------------------------------------------

# Small grids for the self-test: every kind still runs, in well under a second.
_TINY_VERIFY = """
[representation_equivalence]
d_grid = 1,2
n_grid = 2,4
pairs = 2
[trace_identity]
n_grid = 2,4
mc_points = 2000
[bulk_limit]
n_grid = 16,32
[edge_density]
n_grid = 16,32
[edge_kernel]
d_grid = 1,2
n_grid = 16,32
points = 2
[refined_d1]
n_grid = 64,128
[max_principle]
frames = 3
grid_frames = 2
grid_size = 100
[phi_expansion]
n_grid = 100,1000
"""


def write_verify_config(directory: Path, seed: int, tiny: bool) -> Path:
    path = directory / "verify.ini"
    text = f"[global]\nseed = {seed}\nthreads = 1\n"
    path.write_text(text + (_TINY_VERIFY if tiny else ""))
    return path


@dataclass
class _Command:
    """One ``edgedpp verify <kind>`` command."""

    kind: str
    seconds: float
    passed: bool | None  # None: the experiment raised before returning
    error: str | None  # exit code 2, or an exception out of cli.main
    report: bytes | None


def _verify_kind(kind: str, config: Path, report: Path) -> _Command:
    report.unlink(missing_ok=True)
    argv = ["verify", kind, "--config", str(config), "--report", str(report), "--format", "json"]
    verdicts: list[bool] = []
    original = cli.run_experiment

    def recorded(spec, *args, **kwargs):
        rep = original(spec, *args, **kwargs)
        verdicts.append(bool(rep.passed))
        return rep

    cli.run_experiment = recorded
    sink = io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the command crashed: its failure, not the benchmark's
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
    finally:
        cli.run_experiment = original
    if code == 2:
        lines = sink.getvalue().strip().splitlines()
        error = lines[-1] if lines else "exit code 2"
    data = report.read_bytes() if report.exists() else None
    return _Command(kind, seconds, verdicts[0] if verdicts else None, error, data)


def _verify_pass(config: Path, workdir: Path) -> tuple[float, list[_Command]]:
    """What ``verify all`` runs, one kind per command, so one kind's refusal stops no other."""
    t0 = perf_counter()
    commands = [_verify_kind(kind, config, workdir / "report.json") for kind in EXPERIMENT_KINDS]
    return perf_counter() - t0, commands


def _account_command(cmd: _Command, first_reports: dict[str, bytes],
                     failures: dict[str, str | None], out: Outcome) -> None:
    """A command succeeds if its experiment passes and it writes the right report.

    Each kind counts once, and fails if any run of it fails; a repeat whose
    success differs from the first run of the command is a wrong output.
    """
    if cmd.passed is not None:
        out.completed += 1
    failure = cmd.error or (None if cmd.passed else "did not pass")
    if cmd.error is None and cmd.report is None:
        failure = failure or "no report written"
    elif cmd.error is None:
        try:
            reported = [(entry["kind"], entry["passed"]) for entry in json.loads(cmd.report)]
        except (ValueError, KeyError, TypeError) as exc:
            reported = f"unreadable: {exc}"
        first = first_reports.setdefault(cmd.kind, cmd.report)
        if reported != [(cmd.kind, cmd.passed)]:
            out.wrong(f"{cmd.kind}: report {reported!r} does not match the experiment's verdict")
            failure = failure or "wrong report"
        elif cmd.report != first:
            out.wrong(f"{cmd.kind}: report bytes differ between two runs of the same config")
            failure = failure or "report changed"
    if cmd.kind not in failures:
        out.attempted += 1
        failures[cmd.kind] = None
    elif (failure is None) != (failures[cmd.kind] is None):
        out.wrong(f"{cmd.kind}: failed in one run of the command and not in another ({failure})")
    if failure is not None and failures[cmd.kind] is None:
        failures[cmd.kind] = failure
        out.failed += 1
        out.notes.setdefault("failed_commands", {})[cmd.kind] = failure


def _run_verify(seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> tuple[Outcome, dict]:
    out = Outcome()
    first_reports: dict[str, bytes] = {}
    failures: dict[str, str | None] = {}

    def account(wall: float, commands: list[_Command]) -> None:
        # A user waits for the whole pass, and the nine kinds differ in cost by
        # 1000x (bulk_limit's alone varies 3x with the seed), so the pass is the
        # latency sample here; the commands are the operations that can fail.
        out.pass_walls.append(wall)
        out.latencies.append(wall)
        for cmd in commands:
            _account_command(cmd, first_reports, failures, out)

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=root) as tmp:
        workdir = Path(tmp)
        setup_s = measure_setup(root, lambda: cli.load_config(str(write_verify_config(workdir, seed, tiny))))
        config = workdir / "verify.ini"
        if trace:
            plain = _verify_pass(config, workdir)
            with Tracer() as tracer:
                traced = _verify_pass(config, workdir)
            account(*plain)
            account(*traced)
            metrics = _layer_metrics(tracer, out, plain[0], traced[0], len(traced[1]))
        else:
            start = perf_counter()
            # two passes at least, so the report bytes can be compared
            while _another_round(start, seconds, out.pass_walls, 2):
                account(*_verify_pass(config, workdir))
            metrics = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(), **_e2e(out)}
    digest = hashlib.sha256(b"".join(first_reports[k] for k in EXPERIMENT_KINDS if k in first_reports))
    out.notes["report_sha256"] = digest.hexdigest()
    return out, metrics


def _run_contour(seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> tuple[Outcome, dict]:
    out = Outcome()
    ledger = _Ledger()
    prepared: list[list[Cell]] = []
    setup_s = measure_setup(root, lambda: prepared.append(_prepare(seed, tiny)))
    cells = prepared[-1]
    if trace:
        rounds = len(cells[0].pairs) if tiny else TRACE_ROUNDS
        plain_wall = _run_rounds(cells, ledger, out, rounds, 0.0, None)
        plain_evaluations = ledger.evaluations
        with Tracer() as tracer:
            traced_wall = _run_rounds(cells, ledger, out, rounds, 0.0, tracer)
        _check_sweep(cells, ledger, out)
        traced_evaluations = ledger.evaluations - plain_evaluations
        return out, _layer_metrics(tracer, out, plain_wall, traced_wall, traced_evaluations)
    _run_rounds(cells, ledger, out, None, seconds, None)
    peak = _peak_rss_mb()  # before the checks, whose reference route may use more memory
    _check_sweep(cells, ledger, out)
    return out, {"setup_s": setup_s, "peak_rss_mb": peak, **_e2e(out)}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> tuple[Outcome, dict]:
    """Run one workload; returns the outcome and its metric values by name."""
    if name == "verify_all":
        return _run_verify(seed, seconds, trace, tiny, root)
    return _run_contour(seed, seconds, trace, tiny, root)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

SETUP_REPS = 5
_IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import edgedpp.cli"


def measure_setup(root: Path, prepare: Callable[[], object]) -> float:
    """Median over SETUP_REPS of: a fresh interpreter importing edgedpp, then prepare()."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls for the child's exit every
        # 50 ms, and the set-up time would land on that grid
        subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=root, check=True)
        prepare()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quantile(sorted_ms: list[float], q: float, half_width: float) -> float:
    """Mean of the samples ranked within ``half_width`` of the q-th quantile.

    The grid mixes cost classes (cells) in fixed shares, and a class
    boundary can sit at a quantile; averaging the ranks around it keeps the
    estimate from jumping between the two classes' extreme samples.
    """
    n = len(sorted_ms)
    lo = max(0, math.floor((q - half_width) * n))
    hi = min(n, max(lo + 1, math.ceil((q + half_width) * n)))
    return statistics.fmean(sorted_ms[lo:hi])


def _e2e(out: Outcome) -> dict:
    """Timing metrics; the latency sample count goes in the notes."""
    ms = sorted(1e3 * s for s in out.latencies)
    out.notes["latency_samples"] = len(ms)
    return {
        "wall_s": statistics.median(out.pass_walls),
        "evals_per_s": out.completed / sum(out.pass_walls),
        # the median averages the middle fifth; the p90 window stays narrow to stay in the tail
        "eval_ms_p50": _quantile(ms, 0.5, 0.1),
        "eval_ms_p90": _quantile(ms, 0.9, 0.025),
    }


def _layer_metrics(tracer: Tracer, out: Outcome, plain_wall: float, traced_wall: float,
                   traced_ops: int) -> dict:
    if tracer.top_level_spans != traced_ops:
        out.wrong(f"{tracer.top_level_spans} top-level spans for {traced_ops} evaluations")
    if tracer.absent:
        out.notes["absent_entry_points"] = tracer.absent
    return {**tracer.metrics(), "trace.overhead_s": traced_wall - plain_wall}
