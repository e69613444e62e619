"""Benchmark: repair vs full reschedule across fault counts.

Runs the fault-injection study on the paper's 16-switch network — every
single-link failure (k=1) plus sampled k=2 and k=3 multi-fault scenarios
(switch faults included) — and archives each study's C_c table as
``benchmarks/output/fault_injection_k{1,2,3}.txt``.  The repair vs
full-reschedule wall times are printed, not archived, so the archived
tables are deterministic and CI diffs them.

The headline numbers: warm-start repair reaches the same C_c floor as a
full multi-start reschedule on almost every survivable scenario at a
fraction of the search time, and every partitioning scenario degrades to a
per-component schedule instead of an error.
"""

from conftest import run_once

from repro.experiments.failures import (
    render_fault_study,
    render_repair_timing,
    run_fault_study,
)
from repro.faults.model import sample_fault_scenarios, single_link_scenarios

SEED = 1
SAMPLES = 6


def _scenarios_for(topology, k):
    if k == 1:
        return single_link_scenarios(topology)
    return sample_fault_scenarios(topology, num_faults=k, count=SAMPLES,
                                  seed=SEED, include_switches=True)


def test_bench_faults(benchmark, setup16, record):
    def study(k):
        return run_fault_study(setup16, _scenarios_for(setup16.topology, k),
                               seed=SEED)

    res1 = run_once(benchmark, lambda: study(1))
    assert len(res1.survivable) == len(res1.rows), \
        "the 3-regular evaluation network must survive any single-link failure"
    for k, res in ((1, res1), (2, study(2)), (3, study(3))):
        record(f"fault_injection_k{k}", render_fault_study(res))
        print(render_repair_timing(res))
        assert res.all_survivable_repaired_ok(), \
            f"k={k}: a repaired mapping fell below the degraded one"
