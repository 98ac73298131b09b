"""Benchmark entry point for edgedpp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in this one process,
single-threaded; BLAS pools are pinned to one thread before numpy loads.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  The line before it
holds the run's details (failures, checks, report digest).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("verify_all", "contour_offdiag")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20260401)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "edgedpp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no edgedpp sources under {ROOT / 'src'} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import edgedpp
    import workloads

    if Path(edgedpp.__file__).resolve().parent != ROOT / "src" / "edgedpp":
        print(f"error: imported edgedpp from {edgedpp.__file__}, not this checkout", file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out, values = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, ROOT)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload produced no value for {missing}", file=sys.stderr)
        return 2
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": out.failed / out.attempted,
        "problems": out.problems,
        **out.notes,
    }
    print(json.dumps(details))
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
