"""Harness machinery: rate fits, reports, configuration, CLI."""

import configparser
import json
import math
from pathlib import Path

import numpy as np
import pytest

from edgedpp.cli import config_defaults, load_config, main
from edgedpp.errors import DegenerateFitError, DomainError, EdgeDppError, UsageError
from edgedpp.harness import (
    EXPERIMENT_KINDS,
    ConvergenceReport,
    SeriesResult,
    default_spec,
    emit_report,
    fit_convergence_rate,
    run_experiment,
)
from oracles import parse_report_json


def test_fit_rate_exact_power_laws():
    ns = [64, 128, 256, 512]
    samples = [(n, 3.7 / n) for n in ns]
    assert abs(fit_convergence_rate(samples) - (-1.0)) <= 1e-12
    samples = [(n, 2.0 / math.sqrt(n)) for n in ns]
    assert abs(fit_convergence_rate(samples) - (-0.5)) <= 1e-12


def test_fit_rate_with_noise():
    rng = np.random.default_rng(4)
    ns = np.unique(np.logspace(1.5, 4, 30).astype(int))
    samples = [(int(n), (1.0 / n) * float(1 + 0.05 * rng.standard_normal())) for n in ns]
    assert abs(fit_convergence_rate(samples) - (-1.0)) <= 0.05


def test_fit_rate_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_convergence_rate([(10, 0.0), (20, 1e-3)])
    with pytest.raises(UsageError):
        fit_convergence_rate([(10, 1e-3)])


def test_emit_report_header_only_and_field_count():
    assert emit_report([]) == "kind,d,tau,n,error,fitted_exponent,pass\n"
    rep = ConvergenceReport(
        kind="saddle_pole",
        seed=1,
        series=(
            SeriesResult(d=1, tau=0.0, samples=((50, 1e-16), (200, 2e-16)), fitted_exponent=0.0, passed=True),
        ),
        passed=True,
    )
    text = emit_report(rep)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert all(len(line.split(",")) == 7 for line in lines)


def test_report_json_round_trip():
    # saddle_pole fits no rate: its fitted_exponent is None, null in the
    # JSON and an empty field in the CSV
    rep = run_experiment(default_spec("saddle_pole"))
    assert rep.series[0].fitted_exponent is None
    text = emit_report([rep], fmt="json")
    assert '"fitted_exponent": null' in text
    back = parse_report_json(text)
    assert back == [rep]
    assert emit_report(back, fmt="json") == text
    assert all(line.split(",")[5] == "" for line in emit_report([rep]).strip().split("\n")[1:])


def test_edge_kernel_report_carries_plain_numbers():
    # the edge_kernel runner computes its band and errors in numpy
    spec = default_spec("edge_kernel", params_grid=((1, 0.5),), n_grid=(16, 64), settings={"points": 2})
    rep = run_experiment(spec)
    text = emit_report([rep], fmt="json")
    assert parse_report_json(text) == [rep]
    csv_text = emit_report([rep], fmt="csv")
    assert "np." not in text and "np." not in csv_text
    assert len(csv_text.strip().split("\n")) == 3


# Small grids of every kind; trace_identity and saddle_pole draw nothing.
_SMALL_SPECS = {
    "representation_equivalence": dict(params_grid=((1, 0.0), (2, 0.3)), n_grid=(2, 4), settings={"pairs": 2}),
    "trace_identity": dict(params_grid=((1, 0.3), (2, 0.3)), n_grid=(2, 4)),
    "bulk_limit": dict(params_grid=((1, 0.25),), n_grid=(16, 64)),
    "edge_density": dict(params_grid=((2, 0.5),), n_grid=(16, 64)),
    "edge_kernel": dict(params_grid=((2, 0.5),), n_grid=(16, 64), settings={"points": 2}),
    "refined_d1": dict(n_grid=(16, 64)),
    "saddle_pole": dict(),
    "max_principle": dict(settings={"frames": 2, "grid_frames": 1, "grid_size": 64}),
    "phi_expansion": dict(n_grid=(100, 1000)),
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_reports_are_deterministic(kind):
    a, b, c = (run_experiment(default_spec(kind, seed=seed, **_SMALL_SPECS[kind])) for seed in (99, 99, 100))
    assert emit_report([a], fmt="json") == emit_report([b], fmt="json")
    if kind in ("trace_identity", "saddle_pole"):
        assert c.series == a.series
    elif kind == "refined_d1":
        # edge point i is drawn from seed + 307 + i, so seeds 99 and 100 share
        # the point of seed 407, the worst of both draws, and the series
        # repeats until each seed draws from its own stream (ROADMAP item 10)
        assert c.series == a.series
    else:
        assert c.series != a.series


def test_capped_series_name_the_n_they_skip():
    # at d >= 2 edge_density runs n <= 1024 and trace_identity n <= 8
    density = run_experiment(default_spec("edge_density", params_grid=((2, 0.0),), n_grid=(256, 1024, 4096)))
    (series,) = density.series
    assert [n for n, _ in series.samples] == [256, 1024]
    assert series.note.endswith("skipped_n=4096")
    trace = run_experiment(default_spec("trace_identity", params_grid=((1, 0.3), (2, 0.3)), n_grid=(2, 8, 16, 32)))
    assert [s.note for s in trace.series] == ["", "skipped_n=16,32"]
    assert [n for n, _ in trace.series[1].samples] == [2, 8]


def test_global_threads_loads_only_its_old_default(tmp_path):
    # threads was removed; a config pinning threads = 1 still loads to the defaults
    path = tmp_path / "threads.ini"
    path.write_text("[global]\nthreads = 1\n")
    assert load_config(str(path)) == config_defaults()
    path.write_text("[global]\nthreads = 2\n")
    with pytest.raises(EdgeDppError, match="threads was removed"):
        load_config(str(path))


_REMOVED_KEYS = (
    ("representation_equivalence", "radius"),
    ("edge_density", "points"),
    ("refined_d1", "points"),
    ("refined_d1", "u"),
    ("refined_d1", "v"),
    ("saddle_pole", "l1"),
    ("saddle_pole", "l2"),
    ("phi_expansion", "lam"),
    ("phi_expansion", "nu"),
    # acceptance bounds are constants of the harness, not config keys
    ("representation_equivalence", "max_error"),
    ("representation_equivalence", "closed_form"),
    ("trace_identity", "d1_rel"),
    ("trace_identity", "d2_rel"),
    ("bulk_limit", "ratio"),
    ("bulk_limit", "pointwise_half"),
    ("bulk_limit", "pointwise_edge"),
    ("edge_density", "exponent"),
    ("edge_density", "leading_factor"),
    ("edge_kernel", "band"),
    ("refined_d1", "exponent"),
    ("saddle_pole", "fp_floor"),
    ("max_principle", "fprime"),
    ("max_principle", "violation"),
    ("phi_expansion", "exponent"),
)


@pytest.mark.parametrize(
    "kind, key",
    [
        pytest.param("saddle_pole", "n_grid", id="saddle_pole"),
        pytest.param("max_principle", "n_grid", id="max_principle"),
        *(pytest.param(kind, key, id=f"{kind}.{key}") for kind, key in _REMOVED_KEYS),
    ],
)
def test_n_grid_rejected_where_no_runner_reads_it(tmp_path, capsys, kind, key):
    # also the fixed inputs and the bounds that are module constants, not settings
    path = tmp_path / "conf.ini"
    path.write_text(f"[{kind}]\n{key} = 1\n")
    with pytest.raises(EdgeDppError, match=f"unknown config key '{key}'"):
        load_config(str(path))
    assert main(["verify", kind, "--config", str(path)]) == 2
    assert f"error: unknown config key '{key}' in [{kind}]" in capsys.readouterr().err


# Every settings key, a small grid for its kind, and another value.  The
# max_principle violation sample is signed (negative while the principle
# holds), so a coarser grid_size moves it.
_SETTING_CASES = {
    ("representation_equivalence", "pairs"): (dict(params_grid=((1, 0.3),), n_grid=(2, 4)), 3),
    ("edge_kernel", "points"): (dict(params_grid=((1, 0.5),), n_grid=(16, 64)), 2),
    ("max_principle", "frames"): (dict(params_grid=((1, 0.5),)), 3),
    ("max_principle", "grid_frames"): (dict(params_grid=((1, 0.5),)), 2),
    ("max_principle", "grid_size"): (dict(params_grid=((1, 0.5),)), 100),
}


def _outcome(spec) -> str:
    try:
        return emit_report([run_experiment(spec)], fmt="json")
    except EdgeDppError as exc:
        return repr(exc)


@pytest.mark.parametrize("kind, key", sorted(_SETTING_CASES))
def test_every_setting_changes_the_outcome(kind, key):
    assert set(_SETTING_CASES) == {(k, s) for k in EXPERIMENT_KINDS for s in default_spec(k).settings}
    grid, other = _SETTING_CASES[kind, key]
    assert default_spec(kind).settings[key] != other
    base = _outcome(default_spec(kind, seed=3, **grid))
    changed = _outcome(default_spec(kind, seed=3, settings={key: other}, **grid))
    assert changed != base


_COUNT_KINDS = {"frames": "max_principle", "grid_frames": "max_principle", "pairs": "representation_equivalence",
                "points": "edge_kernel"}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", sorted(_COUNT_KINDS))
def test_max_principle_refuses_an_empty_violation_sample(tmp_path, capsys, key, value):
    # a count of 0 would check nothing: no frame gave [PASS] on the sample
    # (0, 0.0), no grid frame a violation of -inf, which JSON cannot carry, no
    # pair an untyped max() of nothing; the spec refuses it, and the CLI exits 2
    kind = _COUNT_KINDS[key]
    with pytest.raises(DomainError, match=f"^{key} must be >= 1, got {value}$"):
        default_spec(kind, settings={key: value})
    conf = tmp_path / "zero.ini"
    conf.write_text(f"[{kind}]\n{key} = {value}\n")
    assert main(["verify", kind, "--config", str(conf)]) == 2
    assert f"error: {key} must be >= 1, got {value}" in capsys.readouterr().err


def test_spec_validation():
    with pytest.raises(UsageError):
        default_spec("no_such_kind")
    with pytest.raises(DomainError):
        default_spec("edge_density", n_grid=(1024, 256))
    # a run varies its grids and counts, never its acceptance bounds
    with pytest.raises(UsageError, match="only params_grid, n_grid and settings"):
        default_spec("saddle_pole", tolerances={"fp_floor": 0.0})
    assert default_spec("saddle_pole").tolerances == {"fp_floor": 1e-13}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_kind_refuses_a_negative_seed(tmp_path, capsys, kind):
    # saddle_pole and trace_identity draw nothing, yet refuse it as the others do
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        default_spec(kind, seed=-1)
    conf = tmp_path / "negative.ini"
    conf.write_text("[global]\nseed = -1\n")
    assert main(["verify", kind, "--config", str(conf)]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


def test_config_defaults_and_overrides(tmp_path):
    cfg = config_defaults()
    assert cfg["global"]["seed"] == 20260401
    assert sum(len(keys) for keys in cfg.values()) == 23  # the seed, grids and counts
    assert "representation_equivalence" in cfg
    path = tmp_path / "conf.ini"
    path.write_text("[global]\nseed = 7\n\n[edge_density]\nn_grid = 64,128\n")
    loaded = load_config(str(path))
    assert loaded["global"]["seed"] == 7
    assert loaded["edge_density"]["n_grid"] == "64,128"
    # the contour rule has no keys: its old section is refused, not ignored
    old = tmp_path / "contour.ini"
    old.write_text("[global]\nseed = 7\n\n[contour]\ntolerance = 1e-9\n")
    with pytest.raises(EdgeDppError, match=r"^unknown config section \[contour\]$"):
        load_config(str(old))
    assert main(["verify", "saddle_pole", "--config", str(old)]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[global]\nnope = 3\n")
    with pytest.raises(EdgeDppError):
        load_config(str(bad))


def test_example_config_is_the_defaults():
    # every section, key and value of config.example.ini is the built-in default
    path = Path(__file__).resolve().parents[1] / "config.example.ini"
    parser = configparser.ConfigParser()
    parser.read(path)
    defaults = config_defaults()
    assert set(parser.sections()) == set(defaults)
    for section in parser.sections():
        assert set(parser[section]) == set(defaults[section]), section
    assert load_config(str(path)) == defaults


def test_cli_kernel_eval(capsys):
    rc = main(
        [
            "kernel",
            "eval",
            "--d",
            "2",
            "--tau",
            "0.0",
            "--n",
            "4",
            "--z",
            "0.0,0.0",
            "--w",
            "0.0,0.0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{1.0 / math.pi**2!r}" in out


def test_cli_density_scan(capsys):
    rc = main(
        [
            "density",
            "scan",
            "--d",
            "1",
            "--tau",
            "0.0",
            "--n",
            "64",
            "--steps",
            "3",
            "--lambda-min",
            "-0.5",
            "--lambda-max",
            "0.5",
        ]
    )
    out = capsys.readouterr().out.strip().split("\n")
    assert rc == 0
    assert out[0] == "lambda,scaled_density,prediction,abs_error"
    assert len(out) == 4
    assert all(len(line.split(",")) == 4 for line in out[1:])


def test_cli_verify_and_report(tmp_path, capsys):
    rc = main(["verify", "saddle_pole"])
    out = capsys.readouterr().out
    assert rc == 0 and "[PASS] saddle_pole" in out
    # saddle_pole fits no rate, so its line names none
    assert "fitted_exponent=" not in out
    target = tmp_path / "rep.csv"
    rc = main(["verify", "saddle_pole", "--format", "csv", "--report", str(target)])
    capsys.readouterr()
    assert rc == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "kind,d,tau,n,error,fitted_exponent,pass"
    assert len(lines) >= 2
    # several kinds in one command, one report
    rc = main(["verify", "saddle_pole", "phi_expansion", "--format", "csv", "--report", str(target)])
    out = capsys.readouterr().out
    assert rc == 0 and "[PASS] saddle_pole" in out and "[PASS] phi_expansion" in out
    kinds = {line.split(",")[0] for line in target.read_text().strip().split("\n")[1:]}
    assert kinds == {"saddle_pole", "phi_expansion"}


def test_cli_usage_error_exit_code(capsys):
    rc = main(
        ["kernel", "eval", "--d", "2", "--tau", "0.0", "--n", "4", "--z", "0.0", "--w", "0.0,0.0"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_refuses_a_series_with_no_samples(tmp_path, capsys):
    # trace_identity runs d >= 2 only at n <= 8, so this grid leaves every
    # d = 2 series empty: a usage error (exit 2), not "worst=nan ok"
    conf = tmp_path / "empty.ini"
    conf.write_text("[trace_identity]\nn_grid = 16,32\n")
    rc = main(["verify", "trace_identity", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: the d=2, tau=0.0 series has no samples on its n grid" in captured.err
    assert "nan" not in captured.out


def test_cli_edge_density_fails_without_its_leading_order_n(tmp_path, capsys):
    # the leading-order check runs at n = 1024; a grid without it fails
    # (exit 1) and names the missing n
    conf = tmp_path / "no1024.ini"
    conf.write_text("[edge_density]\nn_grid = 256,512,2048\n")
    rc = main(["verify", "edge_density", "--config", str(conf)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] edge_density" in out
    assert out.count("leading-order check needs n=1024, which the n grid lacks") == 4
