"""Benchmark: the array kernels vs the readable reference engine.

Fig.-3-scale work: the 16-switch network's OP mapping plus three random
mappings, each swept across the 9-point load ladder, once per engine.
Every point's canonical payload must match bit-for-bit (the tentpole
guarantee); the wall-clock ratios are recorded to
``benchmarks/BENCH_engine.json``.

Two comparisons.  The first is ``fast`` vs ``reference``, one simulator
per (mapping, rate) cell.  The box this runs on is noisy, so each cell
is timed best-of-``REPS`` and the aggregate is the sum of the best
times; the recorded speedup therefore reflects the engines' intrinsic
cost ratio, not scheduler jitter.

The second comparison is the ``vector`` engine's many-seed ladder: the
OP mapping's 9-rate ladder replicated across ``VECTOR_SEEDS`` seeds and
run as ONE ``simulate_batch_vector`` call (1296 replications in a
lockstep arena), against ``fast`` running the same jobs one by one.
The vector engine gives up bit-identity (its contract is the
statistical-equivalence suite in
``tests/simulation/test_engine_equivalence.py``), which is exactly what
frees it to vectorize across the replication axis — the recorded floor
is >= 3x over ``fast`` at this scale.  ``fast`` is timed on a 12-seed
subset and scaled (its cost is linear in jobs; the extrapolation factor
is recorded), and the two sides are timed interleaved best-of-
``VECTOR_ROUNDS`` because the ratio is far more stable than either
absolute number on a shared box.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

from conftest import run_once

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import canonical_payload, make_simulator
from repro.simulation.engine_vector import simulate_batch_vector
from repro.simulation.traffic import IntraClusterTraffic

BENCH_PATH = Path(__file__).parent / "BENCH_engine.json"

# The fig-3 ladder (S1..S9) measured for the seed topology; hardcoded so
# the benchmark never pays for a saturation probe.
RATES = [0.00196, 0.00417, 0.00638, 0.00859, 0.0108,
         0.01301, 0.01522, 0.01743, 0.01963]
REPS = 3

# The many-seed ladder: per-iteration fixed costs amortize across the
# replication axis, so the vector engine's advantage grows with batch
# size; 144 seeds x 9 rates is where the curve flattens on this
# workload.  Random mappings ride along at a smaller seed count for the
# honest per-mapping spread.  The floor can be relaxed for smoke runs on
# noisy CI boxes via REPRO_BENCH_VECTOR_FLOOR.
VECTOR_SEEDS = 144
VECTOR_SEEDS_RANDOM = 48
VECTOR_FAST_SUBSET = 12
VECTOR_ROUNDS = 2
VECTOR_FLOOR = float(os.environ.get("REPRO_BENCH_VECTOR_FLOOR", 3.0))

ENGINE_BENCH_CONFIG = SimulationConfig(
    message_length=16,
    buffer_flits=2,
    warmup_cycles=600,
    measure_cycles=2500,
    seed=7,
)

# Shorter windows for the many-seed ladder: the replication axis, not
# the cycle count, is what this phase scales.
VECTOR_LADDER_CONFIG = SimulationConfig(
    message_length=16,
    buffer_flits=2,
    warmup_cycles=400,
    measure_cycles=1600,
)


def _time_point(table, mapping, rate, cfg):
    """Best-of-REPS wall time for one (mapping, rate, engine) cell."""
    best = float("inf")
    payload = None
    for _ in range(REPS):
        traffic = IntraClusterTraffic(mapping)
        sim = make_simulator(table, traffic, rate, cfg)
        t0 = time.perf_counter()
        res = sim.run()
        best = min(best, time.perf_counter() - t0)
        payload = canonical_payload(res)
    return best, payload


def _time_ladder_vector(table, mapping, seeds, rounds):
    """Interleaved best-of-``rounds`` many-seed ladder timing.

    Returns ``(fast_seconds_scaled, vector_seconds, fast_jobs_measured,
    total_jobs)``.  ``fast`` runs a ``VECTOR_FAST_SUBSET``-seed subset of
    the same jobs and is scaled linearly; the vector side runs ALL
    seeds as one lockstep batch.  Each round times fast then vector
    back to back so load spikes hit both sides alike.
    """
    vjobs = [(table, IntraClusterTraffic(mapping), rate,
              replace(VECTOR_LADDER_CONFIG, seed=seed, engine="vector"))
             for seed in range(seeds) for rate in RATES]
    fjobs = [(table, IntraClusterTraffic(mapping), rate,
              replace(VECTOR_LADDER_CONFIG, seed=seed, engine="fast"))
             for seed in range(VECTOR_FAST_SUBSET) for rate in RATES]
    scale = seeds / VECTOR_FAST_SUBSET
    best_f = best_v = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for tbl, traffic, rate, cfg in fjobs:
            make_simulator(tbl, traffic, rate, cfg).run()
        best_f = min(best_f, (time.perf_counter() - t0) * scale)
        t0 = time.perf_counter()
        results = simulate_batch_vector(vjobs)
        best_v = min(best_v, time.perf_counter() - t0)
        assert all(r.messages_completed > 0 for r in results)
    return best_f, best_v, len(fjobs), len(vjobs)


def test_bench_engine(benchmark, setup16):
    records = [setup16.op_mapping()] + setup16.random_mappings(3)
    table = setup16.routing_table

    totals = {"reference": 0.0, "fast": 0.0}
    per_mapping = {}
    vector_ladder = {}
    mismatches = 0

    def measure():
        nonlocal mismatches
        for rec in records:
            ref_s = fast_s = 0.0
            for rate in RATES:
                rs, rp = _time_point(
                    table, rec.mapping, rate,
                    replace(ENGINE_BENCH_CONFIG, engine="reference"))
                fs, fp = _time_point(
                    table, rec.mapping, rate,
                    replace(ENGINE_BENCH_CONFIG, engine="fast"))
                ref_s += rs
                fast_s += fs
                if rp != fp:
                    mismatches += 1
            totals["reference"] += ref_s
            totals["fast"] += fast_s
            per_mapping[rec.name] = {
                "reference_seconds": round(ref_s, 4),
                "fast_seconds": round(fast_s, 4),
                "speedup": round(ref_s / fast_s, 3),
            }
        # Many-seed vector ladder: the OP mapping at full scale (the
        # headline number), random mappings at a smaller seed count for
        # the per-mapping spread.
        for i, rec in enumerate(records):
            seeds = VECTOR_SEEDS if i == 0 else VECTOR_SEEDS_RANDOM
            rounds = VECTOR_ROUNDS if i == 0 else 1
            fast_many, vec_many, fjobs, vjobs = _time_ladder_vector(
                table, rec.mapping, seeds, rounds)
            vector_ladder[rec.name] = {
                "seeds": seeds,
                "jobs": vjobs,
                "fast_jobs_measured": fjobs,
                "fast_seconds_scaled": round(fast_many, 4),
                "vector_seconds": round(vec_many, 4),
                "vector_speedup_vs_fast": round(fast_many / vec_many, 3),
            }
            per_mapping[rec.name]["vector_speedup_vs_fast"] = \
                vector_ladder[rec.name]["vector_speedup_vs_fast"]

    run_once(benchmark, measure)

    assert mismatches == 0, f"{mismatches} points diverged between engines"
    speedup = totals["reference"] / totals["fast"]
    # The fast kernel targets >= 5x on this workload; keep the hard floor
    # loose enough that a loaded CI box doesn't flake.
    assert speedup >= 1.5
    # Vector floor: the headline many-seed ladder (OP mapping, all
    # seeds in one lockstep batch) must clear VECTOR_FLOOR x over fast.
    headline = vector_ladder[records[0].name]
    vector_vs_fast = headline["vector_speedup_vs_fast"]
    assert vector_vs_fast >= VECTOR_FLOOR, vector_ladder
    # Derived (both sides measured against the same fast baseline): how
    # the vector engine stands vs the readable reference engine.
    vector_vs_reference = vector_vs_fast * speedup
    vec_speedups = [row["vector_speedup_vs_fast"]
                    for row in vector_ladder.values()]

    payload = {
        "benchmark": "engine",
        "topology": setup16.topology.name,
        "mappings": [r.name for r in records],
        "rates": len(RATES),
        "reps_best_of": REPS,
        "message_length": ENGINE_BENCH_CONFIG.message_length,
        "warmup_cycles": ENGINE_BENCH_CONFIG.warmup_cycles,
        "measure_cycles": ENGINE_BENCH_CONFIG.measure_cycles,
        "reference_seconds": round(totals["reference"], 4),
        "fast_seconds": round(totals["fast"], 4),
        "speedup": round(speedup, 3),
        "vector_seconds": headline["vector_seconds"],
        "vector_speedup_vs_fast": vector_vs_fast,
        "vector_speedup_vs_reference": round(vector_vs_reference, 3),
        "vector_ladder": {
            "rates": len(RATES),
            "warmup_cycles": VECTOR_LADDER_CONFIG.warmup_cycles,
            "measure_cycles": VECTOR_LADDER_CONFIG.measure_cycles,
            "rounds_best_of": VECTOR_ROUNDS,
            "headline_mapping": records[0].name,
            "fast_extrapolated_from_seeds": VECTOR_FAST_SUBSET,
            "per_mapping": vector_ladder,
        },
        "per_mapping_vector_speedup_min": round(min(vec_speedups), 3),
        "per_mapping_vector_speedup_max": round(max(vec_speedups), 3),
        "vector_notes": (
            "vector gives up bit-identity (statistical-equivalence "
            "contract in tests/simulation/test_engine_equivalence.py) to "
            "vectorize across replications; fast is timed on a seed "
            "subset and scaled linearly, interleaved with the vector "
            "runs, best-of-N on both sides"
        ),
        "per_mapping": per_mapping,
        "bit_identical": True,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {BENCH_PATH.name}]")
