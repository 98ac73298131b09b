"""Command line interface.

Subcommands:
  verify all | KIND [KIND ...]
                        run verification experiments, print one line per
                        experiment, exit 0/1 on pass/fail (2 on errors);
                        --report OUT also writes a csv/json report
  kernel eval           evaluate the exact kernel at one point pair
  density scan          tabulate the edge density profile against the
                        two-term prediction along the outward normal

Configuration is a plain INI-style key=value file with one section per
experiment kind plus [global] and [contour]; every key has a built-in
default (see config_defaults).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys

import numpy as np

from .contour import ContourConfig
from .errors import EdgeDppError
from .geometry import edge_point_sample
from .harness import (
    DEFAULT_SEED,
    EXPERIMENT_KINDS,
    default_spec,
    emit_report,
    run_experiment,
)
from .kernel import ModelParams, kernel_exact, rho1_density
from .predictors import edge_density_terms

__all__ = ["main", "config_defaults", "load_config"]

# Kinds with a fixed structural (d, tau) grid: they take no d_grid/tau_grid keys.
_FIXED_GRID_KINDS = ("refined_d1", "saddle_pole", "max_principle", "phi_expansion")


def config_defaults() -> dict:
    """Built-in configuration: global keys, contour knobs, per-kind grids."""
    cfg = {
        "global": {"seed": DEFAULT_SEED},
        "contour": {f.name: f.default for f in dataclasses.fields(ContourConfig)},
    }
    for kind in EXPERIMENT_KINDS:
        spec = default_spec(kind)
        cfg[kind] = {"n_grid": ",".join(str(n) for n in spec.n_grid)} if spec.n_grid else {}
        if kind not in _FIXED_GRID_KINDS:
            cfg[kind]["d_grid"] = ",".join(str(d) for d in sorted({d for d, _ in spec.params_grid}))
            cfg[kind]["tau_grid"] = ",".join(repr(t) for t in sorted({t for _, t in spec.params_grid}))
        cfg[kind].update(spec.tolerances)
        cfg[kind].update(spec.settings)
    return cfg


def load_config(path: str | None) -> dict:
    """Defaults overridden by an INI file; unknown keys are rejected."""
    cfg = config_defaults()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    for section in parser.sections():
        if section not in cfg:
            raise EdgeDppError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            # threads was removed; bench/workloads.py still writes threads = 1, so that value loads
            if section == "global" and key == "threads":
                if raw != "1":
                    raise EdgeDppError(f"[global] threads was removed; only threads = 1 loads, got {raw!r}")
                continue
            if key not in cfg[section]:
                raise EdgeDppError(f"unknown config key {key!r} in [{section}]")
            default = cfg[section][key]
            if isinstance(default, str):
                cfg[section][key] = raw
            elif isinstance(default, int) and not isinstance(default, bool):
                cfg[section][key] = int(raw)
            else:
                cfg[section][key] = float(raw)
    return cfg


def _spec_from_config(kind: str, cfg: dict):
    sec = cfg[kind]
    base = default_spec(kind)
    overrides = {
        "tolerances": {key: float(sec[key]) for key in base.tolerances},
        "settings": {key: type(val)(sec[key]) for key, val in base.settings.items() if key in sec},
    }
    if "n_grid" in sec:
        overrides["n_grid"] = tuple(int(x) for x in sec["n_grid"].split(","))
    if kind not in _FIXED_GRID_KINDS:
        d_grid = tuple(int(x) for x in sec["d_grid"].split(","))
        tau_grid = tuple(float(x) for x in sec["tau_grid"].split(","))
        overrides["params_grid"] = tuple((d, t) for d in d_grid for t in tau_grid)
    return default_spec(kind, seed=int(cfg["global"]["seed"]), **overrides)


def _contour_from_config(cfg: dict) -> ContourConfig:
    return ContourConfig(**cfg["contour"])


def _parse_point(text: str, d: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise EdgeDppError(f"expected {d} comma-separated coordinates, got {len(parts)}")
    return np.array([complex(p) for p in parts])


def _cmd_verify(args) -> int:
    """Run the selected kinds (all of them if one is "all"), print one line
    per kind and per series, and optionally write a report."""
    cfg = load_config(args.config)
    contour = _contour_from_config(cfg)
    reports = []
    for kind in EXPERIMENT_KINDS if "all" in args.kind else args.kind:
        rep = run_experiment(_spec_from_config(kind, cfg), contour)
        print(f"[{'PASS' if rep.passed else 'FAIL'}] {kind}")
        for s in rep.series:
            worst = max(e for _, e in s.samples)
            rate = "" if s.fitted_exponent is None else f"fitted_exponent={s.fitted_exponent:+.3f} "
            extra = f" {s.note}" if s.note else ""
            print(f"    d={s.d} tau={s.tau}: worst={worst:.3e} {rate}{'ok' if s.passed else 'FAIL'}{extra}")
        reports.append(rep)
    if args.report:
        text = emit_report(reports, args.format)
        with open(args.report, "w") as fh:
            fh.write(text)
        print(f"report written to {args.report}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_kernel_eval(args) -> int:
    params = ModelParams(d=args.d, tau=args.tau, n=args.n)
    z = _parse_point(args.z, args.d)
    w = _parse_point(args.w, args.d)
    val = kernel_exact(params, z, w)
    print(f"K_n(z, w) = {val.real!r} {'+' if val.imag >= 0 else '-'} {abs(val.imag)!r}j")
    return 0


def _cmd_density_scan(args) -> int:
    params = ModelParams(d=args.d, tau=args.tau, n=args.n)
    edge = edge_point_sample(params, args.seed)
    rn = math.sqrt(args.n)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    rhos = rho1_density(params, np.array([rn * edge.z + lam * edge.normal for lam in lams])).tolist()
    print("lambda,scaled_density,prediction,abs_error")
    for lam, rho in zip(lams, rhos):
        val = args.n**args.d * rho
        lead, second = edge_density_terms(params, edge, float(lam))
        pred = lead + second
        print(f"{lam!r},{val!r},{pred!r},{abs(val - pred)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgedpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification experiments")
    p_verify.add_argument("kind", nargs="+", choices=("all",) + EXPERIMENT_KINDS)
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--report", default=None, metavar="OUT", help="also write a report file")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=_cmd_verify)

    p_kernel = sub.add_parser("kernel", help="kernel evaluations")
    kernel_sub = p_kernel.add_subparsers(dest="subcommand", required=True)
    p_eval = kernel_sub.add_parser("eval", help="evaluate K_n(z, w)")
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--tau", type=float, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--z", required=True, help="comma-separated complex coordinates")
    p_eval.add_argument("--w", required=True, help="comma-separated complex coordinates")
    p_eval.set_defaults(func=_cmd_kernel_eval)

    p_density = sub.add_parser("density", help="density profiles")
    density_sub = p_density.add_subparsers(dest="subcommand", required=True)
    p_scan = density_sub.add_parser("scan", help="edge density against the prediction")
    p_scan.add_argument("--d", type=int, default=1)
    p_scan.add_argument("--tau", type=float, default=0.5)
    p_scan.add_argument("--n", type=int, default=1024)
    p_scan.add_argument("--seed", type=int, default=1)
    p_scan.add_argument("--lambda-min", type=float, default=-1.0, dest="lambda_min")
    p_scan.add_argument("--lambda-max", type=float, default=1.0, dest="lambda_max")
    p_scan.add_argument("--steps", type=int, default=9)
    p_scan.set_defaults(func=_cmd_density_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeDppError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
