#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*.json`` records ``run.py --out DIR`` writes.
Runs of one workload pair up in the order they started, so run the two
commits alternately: parent, change, change, parent, ...

One row per (workload, metric).  An end-to-end metric is

- ``improved`` when there are at least 10 pairs, the change wins at least
  9 of every 10 of them (a tie counts for neither side) and the medians
  differ by more than the parent's interquartile range;
- ``worse`` when the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
- ``unresolved`` when the run-to-run spread (interquartile range over
  median, the wider of the two sides) exceeds the bound and not every
  change run beats every parent run;
- ``unchanged`` otherwise.

Every ratio is change median / parent median, printed with its base.
Per-layer metrics (from ``--trace 1`` runs) are listed without a verdict.
No gain counts when the change fails more operations than the parent.
The exit code is 1 when a row is worse or the change fails more often.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[Tuple[str, int], List[dict]]:
    """Records by (workload, trace), each list in start order."""
    runs: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["trace"])].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_unix"])
    return runs


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values or
    a zero median, as for a layer a workload bypasses)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def classify(parent: List[float], change: List[float], better: str,
             bound: float) -> str:
    """The verdict for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_median = statistics.median(parent)
    gain = sign * (statistics.median(change) - parent_median)
    q1, _q2, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                   else (parent_median,) * 3)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > q3 - q1):
        return "improved"
    if -gain > bound * abs(parent_median):
        return "worse"
    if (max(spread(parent), spread(change)) > bound
            and not all(sign * (c - p) > 0 for p in parent for c in change)):
        return "unresolved"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path) -> Tuple[List[str], bool]:
    """Report lines, and whether the change is acceptable."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines = [f"{'workload':<20} {'metric':<28} {'verdict':<11} "
             f"{'change/parent':>13}  base"]
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        p_all = [r for t in (0, 1) for r in parent.get((workload, t), [])]
        c_all = [r for t in (0, 1) for r in change.get((workload, t), [])]
        if not p_all or not c_all:
            continue
        p_fail = (sum(r["failed"] for r in p_all)
                  / sum(r["attempted"] for r in p_all))
        c_fail = (sum(r["failed"] for r in c_all)
                  / sum(r["attempted"] for r in c_all))
        more_failures = c_fail > p_fail
        ok &= not more_failures
        lines.append(
            f"{workload:<20} {'failed/attempted':<28} "
            f"{'MORE' if more_failures else 'ok':<11} {'':>13}  parent "
            f"{p_fail:.4g} over {len(p_all)} runs, change {c_fail:.4g} over "
            f"{len(c_all)} runs"
            + ("; no gain on this workload counts" if more_failures else ""))
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p_runs = parent.get((workload, trace), [])
            c_runs = change.get((workload, trace), [])
            if not p_runs or not c_runs:
                continue
            for metric in declared:
                name = metric["name"]
                p = [r["metrics"][name]["value"] for r in p_runs]
                c = [r["metrics"][name]["value"] for r in c_runs]
                verdict = "-"
                if trace == 0:
                    verdict = classify(p, c, metric["better"], metric["bound"])
                    if verdict == "improved" and more_failures:
                        verdict = "unresolved"
                ok &= verdict != "worse"
                p_med, c_med = statistics.median(p), statistics.median(c)
                ratio = f"{c_med / p_med:.4f}" if p_med else "n/a"
                lines.append(
                    f"{workload:<20} {name:<28} {verdict:<11} {ratio:>13}  "
                    f"parent median {p_med:.6g} {metric['unit']} over "
                    f"{len(p)} runs (spread {spread(p):.3f}), change median "
                    f"{c_med:.6g} over {len(c)} runs (spread {spread(c):.3f})")
    return lines, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines, ok = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
