#!/usr/bin/env python3
"""Write ``bench/reference.json``: the outputs the benchmark checks against.

    PYTHONPATH=src python bench/make_reference.py

For each of REFERENCE_SEEDS: fig3's sweep-payload digests and ``op_gain``
(bit-identical tier), the ladder's per-rate ``fast``-engine samples (the
statistical tier's oracle), and each 128-switch network's distance-table
row sums and C_c.  The service workload compares replies with in-process
execution and needs no entry.  Rerun only when the program's results are
meant to change.
"""

from __future__ import annotations

import json

from workloads import BENCH_DIR, DEFAULT_REFERENCE, WORKLOADS, Bench

#: 42 is the benchmark's default seed; 1042 is held out, for checking a
#: change on inputs it was not tuned on.
REFERENCE_SEEDS = (42, 1042)


def main() -> None:
    reference = {}
    for name, cls in WORKLOADS.items():
        if cls.make_reference is Bench.make_reference:
            continue
        for seed in REFERENCE_SEEDS:
            bench = cls(seed, False, None, BENCH_DIR / "out")
            entry = bench.make_reference()
            # The code that wrote the reference must pass it.
            bench.reference = entry
            bench.measure(0.0)
            if bench.failures:
                raise SystemExit(f"{name} seed {seed}: {bench.failures}")
            reference.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: done", flush=True)
    DEFAULT_REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
