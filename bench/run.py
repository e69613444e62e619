#!/usr/bin/env python3
"""Run the repository benchmark and print every metric with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] \
        [--trace 0|1] [--out DIR]

Without ``--workload`` every workload of BENCHMARK.json runs in turn.  Each
one runs in fresh interpreters (``bench/workloads.py``): SETUPS - 1 that only
set up, then one that sets up, measures for ``--seconds`` seconds and, with
``--trace 1``, runs one traced repeat.  ``setup_s`` is the median time from
starting an interpreter to its READY line.  ``peak_rss_mb`` is the largest
resident set of any of those processes or of the processes they started
and waited for (the service daemon, pool workers).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full record, with every failed check, is written to DIR (default
``bench/out``); the traced repeat's spans go next to it as JSONL, which
``repro report`` renders.  The exit code is 1 when a check failed and 2 when
a workload could not run (then no result is printed for it).

Only the standard library is imported here, so a checkout without the
program (``src/repro``) exits with 2 before starting anything.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Interpreters started per workload; ``setup_s`` is their median set-up.
SETUPS = 3
#: Wall-clock limit for one workload, all its interpreters included.
TIME_LIMIT = 170.0


class WorkloadError(RuntimeError):
    """A workload produced no result."""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int) -> None:
    """Kill whatever is left in a child's process group and wait for it."""
    _kill_group(pgid)
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise WorkloadError(f"process group {pgid} did not stop")


def run_child(argv: List[str], deadline: float
              ) -> Tuple[Optional[float], Optional[str], int, int]:
    """Run ``workloads.py argv`` in a fresh interpreter.

    Returns (seconds until READY or None, last non-empty stdout line,
    max RSS of it and its reaped descendants in KiB, exit code).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "workloads.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - start), _kill_group,
                               (proc.pid,))
    watchdog.start()
    ready = last = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.monotonic() - start
            elif line.strip():
                last = line
    except BaseException:
        _kill_group(proc.pid)
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
    return ready, last, usage.ru_maxrss, proc.returncode


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    """All interpreters of one workload; returns the full result record."""
    deadline = time.monotonic() + TIME_LIMIT
    started = time.time()
    stem = f"{name}.seed{args.seed}.trace{args.trace}.{time.time_ns()}"
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", str(args.out)]
    if args.toy:
        common.append("--toy")
    if args.reference is not None:
        common += ["--reference", str(args.reference)]
    setups: List[float] = []
    rss_kib = 0
    for attempt in range(SETUPS):
        argv = common + ["--setup-only"]
        if attempt == SETUPS - 1:
            argv = common + ["--trace", str(args.trace)]
            if args.trace:
                argv += ["--trace-path", str(args.out / f"{stem}.trace.jsonl")]
        ready, last, maxrss, code = run_child(argv, deadline)
        if ready is None or code != 0:
            raise WorkloadError(f"{name}: interpreter exited with {code} "
                                f"{'before' if ready is None else 'after'} "
                                "set-up")
        setups.append(ready)
        rss_kib = max(rss_kib, maxrss)
    child = json.loads(last)

    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": rss_kib / 1024,
              **child["end_to_end"], **(child["per_layer"] or {})}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"] for m in spec["end_to_end"]}
    if args.trace:
        expected |= {m["name"] for m in spec["per_layer"]}
    if set(values) != expected:
        raise WorkloadError(f"{name}: metrics {sorted(set(values) ^ expected)} "
                            "disagree with BENCHMARK.json")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {**result, "workload": name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "toy": args.toy,
              "started_unix": started, "completed": child["completed"],
              "setup_runs_s": setups, "unit_s": child["unit_s"],
              "checks": child["checks"],
              "failures": child["failures"]}
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{stem}.json").write_text(json.dumps(record) + "\n")

    checks = ("against the reference" if child["checks"] == "reference"
              else "structural only (no reference entry for this seed)")
    print(f"{name} seed={args.seed}: {child['completed']} timed units, "
          f"checks {checks}: {child['failed']} of {child['attempted']} "
          "operations failed")
    for op, messages in child["failures"].items():
        for message in messages:
            print(f"  FAILED {op}: {message}")
    for m in declared:
        print(f"  {m['name']:<28} {values[m['name']]:>16.6g} {m['unit']:<10} "
              f"{m['better']} is better")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the harness tests")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file (default bench/reference.json)")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    # Unwind through run_child's clean-up, which stops the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    status = 0
    for name in [args.workload] if args.workload else names:
        try:
            result = run_workload(name, args, spec)
        except WorkloadError as exc:
            print(exc, file=sys.stderr)
            status = 2
            continue
        if not result["correct"]:
            status = max(status, 1)
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
