"""The verdict ledger: every kind's outcome at seeds 1-60 and the default seed.

    python tests/ledger.py            # rewrite tests/verdicts.json
    python tests/ledger.py --check    # rerun every seed, print each moved cell

For each kind and seed the ledger records the verdict (pass, fail, or the
refusal's error type and message) and the sha256 of the kind's JSON report,
with the numpy version the hashes were taken on: numpy's ufuncs may round
differently across versions, and a report carries full floats.  A change
that moves report bytes regenerates the ledger, and its diff names exactly
the (kind, seed) cells that moved.  test_ledger.py reruns three seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from edgedpp.errors import EdgeDppError  # noqa: E402
from edgedpp.harness import DEFAULT_SEED, EXPERIMENT_KINDS, default_spec, emit_report, run_experiment  # noqa: E402

LEDGER = Path(__file__).resolve().parent / "verdicts.json"
SEEDS = (*range(1, 61), DEFAULT_SEED)


def entry(kind: str, seed: int) -> dict:
    """The verdict, the refusal (type and message) and the report's sha256 of one run."""
    try:
        report = run_experiment(default_spec(kind, seed=seed))
    except EdgeDppError as exc:
        return {"verdict": "error", "error": [type(exc).__name__, str(exc)], "sha256": None}
    text = emit_report(report, "json").encode()
    return {"verdict": "pass" if report.passed else "fail", "error": None, "sha256": hashlib.sha256(text).hexdigest()}


def build(seeds=SEEDS) -> dict:
    """The ledger of every kind at the given seeds."""
    cells = {kind: {str(seed): entry(kind, seed) for seed in seeds} for kind in EXPERIMENT_KINDS}
    return {"numpy": np.__version__, "cells": cells}


def dumps(ledger: dict) -> str:
    """The ledger's JSON with one line per (kind, seed) cell, so its diff lists the moved cells."""
    kinds = [
        f"  {json.dumps(kind)}: {{\n" + ",\n".join(f"   {json.dumps(seed)}: {json.dumps(cell)}" for seed, cell in row.items()) + "\n  }"
        for kind, row in ledger["cells"].items()
    ]
    return f'{{\n "numpy": {json.dumps(ledger["numpy"])},\n "cells": {{\n' + ",\n".join(kinds) + "\n }\n}\n"


def load() -> dict:
    return json.loads(LEDGER.read_text())


def moved(recorded: dict, fresh: dict, hashes: bool = True) -> list[str]:
    """One line per (kind, seed) of fresh whose verdict, error or (if hashes) report hash differs from recorded."""
    lines = []
    for kind, row in fresh["cells"].items():
        for seed, got in row.items():
            want = recorded["cells"].get(kind, {}).get(seed)
            fields = ("verdict", "error", "sha256") if hashes else ("verdict", "error")
            if want is None or any(got[f] != want[f] for f in fields):
                lines.append(f"{kind} seed {seed}: {want} -> {got}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="compare a fresh run against the ledger instead of writing it")
    args = parser.parse_args(argv)
    fresh = build()
    if not args.check:
        LEDGER.write_text(dumps(fresh))
        return 0
    recorded = load()
    same_numpy = recorded["numpy"] == fresh["numpy"]
    if not same_numpy:
        print(f"numpy {fresh['numpy']} against the ledger's {recorded['numpy']}: report hashes not compared")
    lines = moved(recorded, fresh, same_numpy)
    print("\n".join(lines), end="\n" if lines else "")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
