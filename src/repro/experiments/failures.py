"""Fault-injection study: mapping robustness under arbitrary fault scenarios.

Autonet — the system whose up*/down* routing the paper adopts — was built
around automatic reconfiguration after link/switch failures.  This study
asks the scheduling-layer version of that question over the fault
subsystem (:mod:`repro.faults`): for each injected fault scenario,

1. does up*/down* reconnect every surviving component (it must);
2. how much does the *old* OP mapping degrade under the reconfigured table
   of equivalent distances (``C_c`` before recovery);
3. how much does warm-start Tabu *repair* recover, at what cost, versus a
   *full reschedule* (the repair-vs-reschedule quality/time tradeoff);
4. when the fault partitions the network (or kills switches), what does
   the per-component degraded-mode schedule look like — how many clusters
   still fit?

Scenarios default to every single-link failure; multi-fault studies pass
sampled ``k``-fault scenarios from
:func:`repro.faults.model.sample_fault_scenarios`.  Per-scenario jobs are
independent and seeded, so the study runs on a process pool
(``workers=``) and supports checkpoint/resume (``checkpoint_path=``) with
results bit-identical to an uninterrupted serial run (wall-time fields are
measurement metadata and excluded from the deterministic payload).

This is an extension (the paper does not study failures); the benchmark
treats it as an ablation of mapping robustness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint import SweepCheckpoint
from repro.core.mapping import Partition, Workload
from repro.distance.cache import topology_fingerprint
from repro.experiments.common import ExperimentSetup
from repro.faults.degrade import degrade
from repro.faults.model import FaultScenario, single_link_scenarios
from repro.faults.reschedule import compare_repair_strategies, schedule_degraded
from repro.parallel import WorkersLike, parallel_map
from repro.topology.graph import Topology
from repro.util.reporting import Table


@dataclass
class FaultRow:
    """Outcome of one injected fault scenario."""

    scenario: FaultScenario
    connected: bool                    # survivors form a single component
    full_machine: bool                 # connected and no switch lost
    num_components: int
    c_c_before: float                  # healthy network, OP mapping
    c_c_degraded: Optional[float]      # old mapping, reconfigured distances
    c_c_repaired: Optional[float]      # warm-start Tabu repair
    c_c_rescheduled: Optional[float]   # full multi-start reschedule
    repair_seconds: float
    reschedule_seconds: float
    placed_clusters: int
    unplaced_clusters: int

    @property
    def survivable(self) -> bool:
        """True when the old workload still fits the surviving network."""
        return self.full_machine

    @property
    def repair_gap(self) -> Optional[float]:
        """``C_c`` left on the table by repairing instead of rescheduling."""
        if self.c_c_repaired is None or self.c_c_rescheduled is None:
            return None
        return self.c_c_rescheduled - self.c_c_repaired

    def deterministic_dict(self) -> Dict[str, Any]:
        """Seed-determined fields only — wall times are excluded.

        Two runs of the same study (serial, parallel, or resumed from a
        checkpoint) must produce byte-identical serializations of this
        dict; the timing fields vary per run and are reported separately.
        """
        return {
            "scenario": self.scenario.to_dict(),
            "connected": self.connected,
            "full_machine": self.full_machine,
            "num_components": self.num_components,
            "c_c_before": self.c_c_before,
            "c_c_degraded": self.c_c_degraded,
            "c_c_repaired": self.c_c_repaired,
            "c_c_rescheduled": self.c_c_rescheduled,
            "placed_clusters": self.placed_clusters,
            "unplaced_clusters": self.unplaced_clusters,
        }


@dataclass
class FaultStudyResult:
    """All rows of one fault-injection study."""

    rows: List[FaultRow]
    baseline_c_c: float

    @property
    def survivable(self) -> List[FaultRow]:
        """Scenarios after which the full workload still fits."""
        return [r for r in self.rows if r.survivable]

    @property
    def degraded_mode(self) -> List[FaultRow]:
        """Scenarios that forced per-component (degraded-mode) scheduling."""
        return [r for r in self.rows if not r.survivable]

    def all_survivable_repaired_ok(self) -> bool:
        """Warm-start repair (and reschedule) never lose to the degraded mapping."""
        return all(
            r.c_c_repaired >= r.c_c_degraded - 1e-9
            and r.c_c_rescheduled >= r.c_c_degraded - 1e-9
            for r in self.survivable
        )

    def deterministic_payload(self) -> str:
        """Canonical JSON of every row's seed-determined fields.

        The bit-identity anchor for checkpoint/resume tests: an
        interrupted-and-resumed study must serialize to exactly these
        bytes.
        """
        return json.dumps(
            {
                "baseline_c_c": self.baseline_c_c,
                "rows": [r.deterministic_dict() for r in self.rows],
            },
            sort_keys=True,
        )


# One study job: everything a worker needs, value-like and picklable.
_ScenarioJob = Tuple[Topology, Workload, Partition, float, FaultScenario,
                     int, int, int]


def _evaluate_scenario(job: _ScenarioJob) -> FaultRow:
    """Run one fault scenario end to end (top-level for pickling)."""
    (topology, workload, baseline_partition, baseline_c_c, scenario, seed,
     repair_restarts, full_restarts) = job
    net = degrade(topology, scenario)
    if net.full_machine:
        cmp = compare_repair_strategies(
            net, workload, baseline_partition, seed=seed,
            repair_restarts=repair_restarts, full_restarts=full_restarts,
        )
        return FaultRow(
            scenario=scenario,
            connected=True,
            full_machine=True,
            num_components=1,
            c_c_before=baseline_c_c,
            c_c_degraded=cmp.degraded_c_c,
            c_c_repaired=cmp.repaired.c_c,
            c_c_rescheduled=cmp.rescheduled.c_c,
            repair_seconds=cmp.repaired.seconds,
            reschedule_seconds=cmp.rescheduled.seconds,
            placed_clusters=workload.num_clusters,
            unplaced_clusters=0,
        )
    # Partitioned network or lost switches: degrade gracefully to a
    # per-component schedule instead of raising.
    plan = schedule_degraded(net, workload, old_partition=baseline_partition,
                             seed=seed)
    return FaultRow(
        scenario=scenario,
        connected=net.connected,
        full_machine=False,
        num_components=len(net.components),
        c_c_before=baseline_c_c,
        c_c_degraded=None,
        c_c_repaired=None,
        c_c_rescheduled=None,
        repair_seconds=plan.seconds,
        reschedule_seconds=0.0,
        placed_clusters=len(plan.placed),
        unplaced_clusters=len(plan.unplaced),
    )


def study_checkpoint_key(setup: ExperimentSetup,
                         scenarios: Sequence[FaultScenario],
                         seed: int) -> str:
    """Stable identity of one study configuration (for ``--resume``)."""
    labels = ",".join(s.label for s in scenarios)
    return (
        f"faults|{topology_fingerprint(setup.topology)}|{seed}|"
        f"{len(scenarios)}|{labels}"
    )


def run_fault_study(
    setup: ExperimentSetup,
    scenarios: Optional[Sequence[FaultScenario]] = None,
    *,
    seed: int = 1,
    workers: WorkersLike = None,
    checkpoint_path: Optional[str] = None,
    repair_restarts: int = 1,
    full_restarts: int = 10,
) -> FaultStudyResult:
    """Inject fault scenarios and measure degradation/repair/reschedule.

    ``scenarios`` defaults to every single-link failure of the topology.
    Per-scenario jobs run on a process pool when ``workers`` asks for one;
    with ``checkpoint_path`` every completed scenario is recorded durably
    and a re-run resumes from the last completed job, bit-identical to an
    uninterrupted run.
    """
    if scenarios is None:
        scenarios = single_link_scenarios(setup.topology)
    scenarios = list(scenarios)
    baseline = setup.scheduler.schedule(setup.workload, seed=seed)
    jobs: List[_ScenarioJob] = [
        (setup.topology, setup.workload, baseline.partition, baseline.c_c,
         scenario, seed, repair_restarts, full_restarts)
        for scenario in scenarios
    ]
    if checkpoint_path is None:
        rows = parallel_map(_evaluate_scenario, jobs, workers=workers)
    else:
        with SweepCheckpoint(
                checkpoint_path,
                key=study_checkpoint_key(setup, scenarios, seed),
                total=len(jobs)) as checkpoint:
            rows = parallel_map(_evaluate_scenario, jobs, workers=workers,
                                checkpoint=checkpoint)
    return FaultStudyResult(rows=rows, baseline_c_c=baseline.c_c)


def render_fault_study(res: FaultStudyResult) -> str:
    """Text table of per-scenario degradation, repair and rescheduling.

    Deterministic for a given study: wall times are left to
    :func:`render_repair_timing`.
    """
    t = Table(
        ["scenario", "comps", "C_c healthy", "C_c degraded", "C_c repaired",
         "C_c resched", "placed"],
        title="failure injection — degradation, repair and reschedule",
    )
    for r in res.rows:
        t.add_row([
            r.scenario.label,
            r.num_components,
            r.c_c_before,
            r.c_c_degraded,
            r.c_c_repaired,
            r.c_c_rescheduled,
            f"{r.placed_clusters}"
            + (f" (-{r.unplaced_clusters})" if r.unplaced_clusters else ""),
        ], digits=3)
    surv = res.survivable
    degraded_mode = res.degraded_mode
    lines = [
        f"\nsurvivable failures: {len(surv)}/{len(res.rows)}; "
        f"repair held the degradation floor on all of them"
        if res.all_survivable_repaired_ok() else
        f"\nsurvivable failures: {len(surv)}/{len(res.rows)}; "
        "WARNING: a recovery fell below the degraded mapping",
    ]
    if degraded_mode:
        placed = sum(r.placed_clusters for r in degraded_mode)
        total = placed + sum(r.unplaced_clusters for r in degraded_mode)
        lines.append(
            f"degraded-mode scenarios: {len(degraded_mode)} "
            f"(per-component scheduling placed {placed}/{total} clusters)"
        )
    return t.render() + "\n".join(lines)


def render_repair_timing(res: FaultStudyResult) -> str:
    """Total repair vs full-reschedule search time over the survivable
    scenarios, with the mean C_c gap; empty when none survived."""
    surv = res.survivable
    if not surv:
        return ""
    rep = sum(r.repair_seconds for r in surv)
    full = sum(r.reschedule_seconds for r in surv)
    gaps = [r.repair_gap for r in surv if r.repair_gap is not None]
    mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
    if rep <= 0:
        return f"repair vs full reschedule: {rep:.2f}s vs {full:.2f}s"
    return (f"repair vs full reschedule: {rep:.2f}s vs {full:.2f}s "
            f"({full / rep:.1f}x) at a mean C_c gap of {mean_gap:.4f}")


__all__ = [
    "FaultRow",
    "FaultStudyResult",
    "run_fault_study",
    "render_fault_study",
    "render_repair_timing",
    "study_checkpoint_key",
]
