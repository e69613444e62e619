"""Benchmark: parallel load sweep vs the serial baseline.

Fig.-5-scale work: the OP mapping of the 24-switch four-ring network swept
across a multi-point load ladder.  Times the serial and process-pool runs,
asserts the LoadPoints are identical, and writes the measurements to
``benchmarks/BENCH_sweep.json``.  As with the search benchmark, the speedup
reflects the machine it ran on.

Beyond the pool, the sweep's chunked dispatch lets the ``vector`` engine
run a whole worker chunk as ONE ``simulate_batch_vector`` call instead
of one process-pool job per point.  The bench times that path too (the
statistically-equivalent lockstep kernel), recording its speedup over
the serial scalar sweep.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

from conftest import run_once

from repro.parallel import detect_workers
from repro.simulation.sweep import make_load_points, run_load_sweep
from repro.simulation.traffic import IntraClusterTraffic

BENCH_PATH = Path(__file__).parent / "BENCH_sweep.json"
NUM_POINTS = 6
MAX_RATE = 0.06


def test_bench_sweep(benchmark, setup24, bench_config):
    op = setup24.op_mapping()
    traffic = IntraClusterTraffic(op.mapping)
    rates = make_load_points(MAX_RATE, n=NUM_POINTS)
    workers = detect_workers()

    t0 = time.perf_counter()
    serial = run_load_sweep(setup24.routing_table, traffic, rates,
                            bench_config, workers=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_once(
        benchmark,
        lambda: run_load_sweep(setup24.routing_table, traffic, rates,
                               bench_config, workers="auto"),
    )
    parallel_seconds = time.perf_counter() - t0

    assert len(parallel) == len(serial) == NUM_POINTS
    for s, p in zip(serial, parallel):
        assert p.index == s.index and p.rate == s.rate
        assert p.result == s.result

    # Chunked vector dispatch: the whole ladder as one
    # simulate_batch_vector call, timed under its statistical contract
    # (equivalence is enforced by the tier-1 suite, not here).
    t0 = time.perf_counter()
    vector = run_load_sweep(setup24.routing_table, traffic, rates,
                            replace(bench_config, engine="vector"),
                            workers=1)
    vector_seconds = time.perf_counter() - t0
    assert len(vector) == NUM_POINTS
    assert all(v.result.messages_completed > 0 for v in vector)

    payload = {
        "benchmark": "sweep",
        "topology": setup24.topology.name,
        "points": NUM_POINTS,
        "max_rate": MAX_RATE,
        "warmup_cycles": bench_config.warmup_cycles,
        "measure_cycles": bench_config.measure_cycles,
        "workers": workers,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "identical": True,
        "vector_chunk_seconds": round(vector_seconds, 4),
        "vector_chunk_speedup": round(serial_seconds / vector_seconds, 3),
        "notes": ("chunked dispatch sends one simulate_batch_vector call "
                  "per worker chunk instead of one pool job per point; the "
                  "vector engine's per-cycle array overhead only "
                  "amortizes at many replications (see BENCH_engine.json "
                  "vector_ladder at 144 seeds), so a 6-point sweep is "
                  "not its regime"),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {BENCH_PATH.name}]")
