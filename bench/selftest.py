"""Self-test of the benchmark: python3 bench/selftest.py (from the checkout root).

Checks BENCHMARK.json against the benchmark's own rules, runs every
workload on tiny inputs with tracing off and on, and asserts that the last
stdout line names every metric once with its unit.  It also checks that
the benchmark refuses to run, without printing a result, when the
edgedpp sources are missing, that the traced verify_all run reaches every
layer, that a missing entry point is reported rather than fatal, that an
experiment that raises is still timed, that attempted and failed do not
depend on how often a run repeats its inputs, and that baseline.json only
names known workloads and metrics.  Takes about half a
minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= int(spec["run_seconds"]) <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_baseline(spec: dict) -> None:
    base = json.loads((BENCH / "baseline.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(base["workloads"]) == listed, "baseline.json must describe every workload"
    workloads = listed | set(base["dropped_workloads"])
    for row in base["predictions"]:
        assert set(row["per_layer"]) <= per_layer, row
        for move in row["moves"]:
            assert move["metric"] in end_to_end and move["on"] in workloads, row
        assert set(row["no_change_on"]) <= workloads, row


def run_tiny(workload: str, trace: int, wanted: list[dict]) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], sorted(set(got) ^ {m["name"] for m in wanted})
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), (m, entry)
    return result


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "contour_offdiag", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)


def check_absent_entry_point() -> None:
    """A renamed or removed entry point is reported, not fatal."""
    import spans

    saved = spans.SPANS
    spans.SPANS = saved + (("kernel.exact", "edgedpp.kernel", "no_such_entry_point"),)
    try:
        with spans.Tracer() as tracer:
            pass
    finally:
        spans.SPANS = saved
    assert tracer.absent == ["edgedpp.kernel.no_such_entry_point"], tracer.absent


def check_raising_experiment_is_timed() -> None:
    """An experiment that raises still reports the time it ran."""
    from types import SimpleNamespace

    import spans
    from edgedpp import harness
    from edgedpp.errors import EdgeDppError

    def raising(spec, *args, **kwargs):
        time.sleep(0.01)
        raise EdgeDppError("refused")

    saved = harness.run_experiment
    harness.run_experiment = raising
    try:
        with spans.Tracer() as tracer:
            try:
                harness.run_experiment(SimpleNamespace(kind="bulk_limit"))
            except EdgeDppError:
                pass
    finally:
        harness.run_experiment = saved
    wall = tracer.metrics()["harness.bulk_limit.wall_s"]
    assert wall >= 0.01, wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_baseline(spec)
    check_refuses_without_sources()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    check_absent_entry_point()
    check_raising_experiment_is_timed()
    import run

    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        counts = set()
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_tiny(name, trace, wanted)
            counts.add((result["attempted"], result["failed"]))
            if name == "verify_all" and trace:
                # verify_all reaches every layer, some only through `from … import`
                # copies (harness -> saddle, predictors; cli -> run_experiment)
                idle = [k for k, v in result["metrics"].items()
                        if (k.endswith(".calls") or k.startswith("harness.")) and v["value"] <= 0]
                assert not idle, f"layers not traced under verify_all: {idle}"
            print(f"ok {name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
        # the two modes repeat the inputs a different number of times, and
        # each input counts once, so the counts must agree
        assert len(counts) == 1, f"{name}: attempted/failed depend on the repeats: {counts}"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
