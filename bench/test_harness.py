"""Tests of the benchmark harness itself, at toy sizes.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(tmp_path: Path, *args: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--toy", "--seconds", "1",
         "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_emits_declared_metrics(tmp_path, workload, trace):
    code, result, proc = run_bench(tmp_path, "--workload", workload,
                                   "--seed", "5", "--trace", str(trace))
    assert code == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
    if trace:
        traces = list(tmp_path.glob("*.trace.jsonl"))
        assert len(traces) == 1
        from repro.obs.schema import validate_trace_file

        assert validate_trace_file(traces[0])["span"] > 0


def test_schedule_times_whole_rounds(tmp_path):
    bench = workloads.Schedule(5, True, None, tmp_path)
    bench.measure(0.0)
    assert bench.completed == len(bench.times) == 2 * bench.per_round
    assert not bench.failures
    assert workloads.p95(list(range(100, 0, -1))) == 95


def test_corrupted_reference_fails_the_run(tmp_path):
    entry = workloads.Schedule(5, True, None, tmp_path).make_reference()
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"schedule-128sw": {"5": entry}}))
    args = ("--workload", "schedule-128sw", "--seed", "5",
            "--reference", str(path))
    code, result, proc = run_bench(tmp_path, *args)
    assert code == 0 and result["correct"], proc.stdout
    assert "checks against the reference" in proc.stdout

    entry["networks"][1]["row_sums"][0] += 1e-6
    path.write_text(json.dumps({"schedule-128sw": {"5": entry}}))
    code, result, proc = run_bench(tmp_path, *args)
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "row sums drift" in proc.stdout


# ----------------------------------------------------------------- compare

PARENT = [10.0 + 0.01 * i for i in range(10)]


def test_nine_of_ten_wins_is_improved():
    change = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert compare.classify(PARENT, change, "lower", 0.1) == "improved"


def test_eight_of_ten_wins_is_not_claimed():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]]
    assert compare.classify(PARENT, change, "lower", 0.1) == "unchanged"


def test_ties_count_for_neither_side():
    one_tie = [p - 1.0 for p in PARENT[:9]] + [PARENT[9]]
    assert compare.classify(PARENT, one_tie, "lower", 0.1) == "improved"
    two_ties = [p - 1.0 for p in PARENT[:8]] + PARENT[8:]
    assert compare.classify(PARENT, two_ties, "lower", 0.1) == "unchanged"


def test_wide_spread_is_unresolved():
    parent = [5.0, 15.0] * 5
    change = [6.0, 14.0] * 5
    assert compare.classify(parent, change, "lower", 0.1) == "unresolved"
    # ...unless every change run beats every parent run; the gain is still
    # not claimed, because it is smaller than the parent's IQR.
    assert compare.classify(parent, [4.0] * 10, "lower", 0.5) == "unchanged"


def test_worse_than_bound_and_higher_is_better():
    slower = [p * 1.2 for p in PARENT]
    assert compare.classify(PARENT, slower, "lower", 0.1) == "worse"
    assert compare.classify(PARENT, slower, "higher", 0.1) == "improved"
    assert compare.classify(PARENT, PARENT[::-1], "lower", 0.1) == "unchanged"


def test_compare_directories(tmp_path):
    for side, scale in (("parent", 1.0), ("change", 1.5)):
        (tmp_path / side).mkdir()
        for i, value in enumerate(PARENT):
            record = {
                "workload": "schedule-128sw", "trace": 0, "started_unix": i,
                "attempted": 5, "failed": 0,
                "metrics": {m["name"]: {"value": value * scale,
                                        "unit": m["unit"]}
                            for m in SPEC["end_to_end"]},
            }
            (tmp_path / side / f"{i}.json").write_text(json.dumps(record))
    lines, ok = compare.compare(tmp_path / "parent", tmp_path / "change")
    assert not ok
    rows = {line.split()[1]: line.split()[2] for line in lines[1:]}
    assert rows["run_s"] == "worse" and rows["throughput"] == "improved"
    assert rows["failed/attempted"] == "ok"
