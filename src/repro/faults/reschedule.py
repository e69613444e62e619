"""Degraded-mode scheduling: repair, full reschedule, per-component plans.

Three escalation levels over a :class:`~repro.faults.degrade.DegradedNetwork`:

1. **Evaluate** — score the pre-fault partition under the surviving
   network's reconfigured distance table (how much did the old mapping
   degrade?).
2. **Repair** — warm-start Tabu from the old partition
   (``initial=``, one restart): an incremental fix that is guaranteed to
   end at ``F_G`` no worse than the degraded mapping's — hence, for fixed
   cluster sizes, at ``C_c`` no worse — at a fraction of the full search's
   cost.  This treats remapping as an incremental optimisation problem, in
   the spirit of the process-remapping literature.
3. **Full reschedule** — the paper's multi-start Tabu (warm first start,
   random remainder): the quality ceiling, at full search cost.

When the fault *partitions* the network — or kills switches so the old
mapping no longer fits — :func:`schedule_degraded` degrades gracefully
instead of raising: logical clusters are packed onto the surviving
components (first-fit decreasing), each component is scheduled
independently with its own reconfigured routing and distance table, and
clusters that no longer fit anywhere are reported as unplaced rather than
crashing the scheduler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import Partition, Workload
from repro.core.quality import QualityEvaluator
from repro.faults.degrade import ComponentNetwork, DegradedNetwork
from repro.search.base import SearchResult, SimilarityObjective
from repro.search.tabu import TabuSearch
from repro.util.rng import derive_seed

_EPS = 1e-9


# --------------------------------------------------------------------- #
# connected-network paths: evaluate / repair / full reschedule
# --------------------------------------------------------------------- #

def evaluate_partition(net: DegradedNetwork,
                       partition: Partition) -> Dict[str, float]:
    """Score a pre-fault partition on the degraded (but intact) network.

    Requires ``net.full_machine`` — with lost switches or a partitioned
    network the old partition is no longer directly comparable (its
    clusters may reference dead switches or span components).
    """
    if not net.full_machine:
        raise ValueError(
            f"scenario {net.scenario.label}: old partitions are only "
            "evaluable on a connected full machine; use schedule_degraded"
        )
    evaluator = QualityEvaluator(net.distance_table())
    f = evaluator.similarity(partition)
    d = evaluator.dissimilarity(partition)
    return {"F_G": f, "D_G": d, "C_c": d / f}


@dataclass
class TimedSchedule:
    """A search outcome plus the wall time it took."""

    partition: Partition
    f_g: float
    c_c: float
    seconds: float
    search: SearchResult


def _timed_tabu(net: DegradedNetwork, workload: Workload, *,
                seed: int, restarts: int,
                initial: Optional[Partition]) -> TimedSchedule:
    comp = net.components[0]
    objective = SimilarityObjective(
        comp.distance_table(),
        workload.switch_quota(comp.topology),
        num_switches=comp.topology.num_switches,
    )
    search = TabuSearch(restarts=restarts)
    t0 = time.perf_counter()
    result = search.run(objective, seed=seed, initial=initial)
    seconds = time.perf_counter() - t0
    evaluator = objective.evaluator
    f = evaluator.similarity(result.best_partition)
    d = evaluator.dissimilarity(result.best_partition)
    return TimedSchedule(
        partition=result.best_partition,
        f_g=f,
        c_c=d / f,
        seconds=seconds,
        search=result,
    )


def repair_schedule(net: DegradedNetwork, workload: Workload,
                    old_partition: Partition, *, seed: int = 1,
                    restarts: int = 1) -> TimedSchedule:
    """Warm-start Tabu repair of a pre-fault mapping (full machine only).

    With the default single restart the search begins at the old partition
    and tracks the best value seen — so the repaired ``F_G`` never exceeds
    the degraded mapping's, and (fixed sizes) the repaired ``C_c`` never
    falls below it.
    """
    if not net.full_machine:
        raise ValueError(
            f"scenario {net.scenario.label}: warm-start repair needs a "
            "connected full machine; use schedule_degraded"
        )
    return _timed_tabu(net, workload, seed=seed, restarts=restarts,
                       initial=old_partition)


def full_reschedule(net: DegradedNetwork, workload: Workload, *,
                    old_partition: Optional[Partition] = None, seed: int = 1,
                    restarts: int = 10) -> TimedSchedule:
    """The paper's multi-start Tabu on the degraded network.

    When ``old_partition`` is given the first start is warm (preserving the
    repair guarantee) and the remaining starts explore from random seeds.
    """
    if not net.full_machine:
        raise ValueError(
            f"scenario {net.scenario.label}: full rescheduling of the "
            "original workload needs a connected full machine; use "
            "schedule_degraded"
        )
    return _timed_tabu(net, workload, seed=seed, restarts=restarts,
                       initial=old_partition)


@dataclass
class RepairComparison:
    """Repair-vs-full-reschedule tradeoff on one survivable scenario."""

    degraded_c_c: float
    repaired: TimedSchedule
    rescheduled: TimedSchedule

    @property
    def repair_gap(self) -> float:
        """Quality left on the table by repairing instead of rescheduling."""
        return self.rescheduled.c_c - self.repaired.c_c


def compare_repair_strategies(
    net: DegradedNetwork, workload: Workload, old_partition: Partition, *,
    seed: int = 1, repair_restarts: int = 1, full_restarts: int = 10,
) -> RepairComparison:
    """Evaluate, repair and fully reschedule one survivable scenario.

    Returns the degraded ``C_c`` of the old mapping plus both timed
    recovery schedules, so study drivers can report the quality/time
    tradeoff.  Both recoveries warm-start from the old partition, hence
    both are guaranteed to reach ``C_c`` at least the degraded value.
    """
    degraded = evaluate_partition(net, old_partition)["C_c"]
    repaired = repair_schedule(net, workload, old_partition, seed=seed,
                               restarts=repair_restarts)
    rescheduled = full_reschedule(net, workload, old_partition=old_partition,
                                  seed=seed, restarts=full_restarts)
    return RepairComparison(
        degraded_c_c=degraded,
        repaired=repaired,
        rescheduled=rescheduled,
    )


# --------------------------------------------------------------------- #
# graceful degradation: per-component scheduling
# --------------------------------------------------------------------- #

@dataclass
class ClusterPlacement:
    """Where one logical cluster landed in a degraded-mode schedule."""

    cluster_index: int
    cluster_name: str
    component_index: Optional[int]     # None = unplaced
    switches: Tuple[int, ...] = ()     # original switch ids

    @property
    def placed(self) -> bool:
        """True when the cluster was assigned to a surviving component."""
        return self.component_index is not None


@dataclass
class DegradedSchedule:
    """A per-component schedule produced under faults — never an exception.

    ``placements`` covers every cluster of the workload, placed or not;
    ``component_c_c`` holds each component's clustering coefficient where
    it is defined (a component needs at least one intracluster *and* one
    intercluster switch pair).
    """

    scenario_label: str
    connected: bool
    placements: List[ClusterPlacement]
    component_c_c: Dict[int, Optional[float]] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def placed(self) -> List[ClusterPlacement]:
        """Placements that landed on a component."""
        return [p for p in self.placements if p.placed]

    @property
    def unplaced(self) -> List[ClusterPlacement]:
        """Clusters the surviving capacity could not accommodate."""
        return [p for p in self.placements if not p.placed]


def _component_c_c(evaluator: QualityEvaluator,
                   partition: Partition) -> Optional[float]:
    """``C_c`` of a component-local partition, or ``None`` if undefined."""
    try:
        return evaluator.clustering_coefficient(partition)
    except ValueError:
        return None


def _warm_start_for(comp: ComponentNetwork, placed: Sequence[int],
                    quotas: Sequence[int],
                    old_partition: Optional[Partition]) -> Optional[Partition]:
    """Old-mapping restriction to ``comp``, if it matches the placed quotas.

    Reuses the pre-fault placement as the Tabu warm start whenever every
    placed cluster kept exactly its quota of switches inside the component;
    otherwise returns ``None`` (cold start).
    """
    if old_partition is None:
        return None
    to_local = comp.to_local
    labels = np.full(comp.size, -1, dtype=np.int64)
    for local_idx, (ci, quota) in enumerate(zip(placed, quotas)):
        members = [
            s for s in range(old_partition.num_switches)
            if old_partition.labels[s] == ci and s in to_local
        ]
        if len(members) != quota:
            return None
        for s in members:
            labels[to_local[s]] = local_idx
    return Partition(labels)


def schedule_degraded(
    net: DegradedNetwork, workload: Workload, *,
    old_partition: Optional[Partition] = None, seed: int = 1,
    restarts: int = 4,
) -> DegradedSchedule:
    """Graceful degraded-mode scheduling: always returns a schedule.

    Logical clusters are packed onto the surviving components by first-fit
    decreasing (largest cluster first, fullest-capacity component first);
    each component then runs its own Tabu search over its reconfigured
    distance table, warm-started from the old mapping where it still
    matches.  Clusters that fit no component are reported as unplaced —
    a partitioning or capacity-destroying fault degrades the schedule, it
    does not raise.
    """
    t0 = time.perf_counter()
    quotas = workload.switch_quota(net.base)
    placements: List[ClusterPlacement] = [
        ClusterPlacement(ci, c.name, None)
        for ci, c in enumerate(workload.clusters)
    ]

    # First-fit decreasing bin packing of cluster switch quotas onto
    # component capacities (deterministic tie-breaks on indices).
    order = sorted(range(len(quotas)), key=lambda ci: (-quotas[ci], ci))
    remaining = [comp.size for comp in net.components]
    per_component: Dict[int, List[int]] = {}
    for ci in order:
        for k in range(len(net.components)):
            if quotas[ci] <= remaining[k]:
                remaining[k] -= quotas[ci]
                per_component.setdefault(k, []).append(ci)
                break

    component_c_c: Dict[int, Optional[float]] = {}
    for k, members in sorted(per_component.items()):
        comp = net.components[k]
        placed = sorted(members)
        placed_quotas = [quotas[ci] for ci in placed]
        local = _schedule_component(
            comp, placed, placed_quotas, old_partition,
            seed=derive_seed(seed, "component", k), restarts=restarts,
        )
        evaluator = QualityEvaluator(comp.distance_table()) \
            if comp.size >= 2 else None
        component_c_c[k] = (
            _component_c_c(evaluator, local) if evaluator is not None else None
        )
        # Translate the local partition back to original switch ids.
        for local_idx, ci in enumerate(placed):
            switches = tuple(
                comp.to_global[s]
                for s in range(comp.size)
                if local.labels[s] == local_idx
            )
            placements[ci] = ClusterPlacement(
                ci, workload.clusters[ci].name, k, switches
            )

    return DegradedSchedule(
        scenario_label=net.scenario.label,
        connected=net.connected,
        placements=placements,
        component_c_c=component_c_c,
        seconds=time.perf_counter() - t0,
    )


def _schedule_component(comp: ComponentNetwork, placed: Sequence[int],
                        quotas: Sequence[int],
                        old_partition: Optional[Partition], *,
                        seed: int, restarts: int) -> Partition:
    """Tabu-schedule the placed clusters inside one component (local ids)."""
    pairs = sum(q * (q - 1) // 2 for q in quotas)
    if pairs == 0 or comp.size < 2:
        # Degenerate objective (all placed clusters are single-switch, or a
        # single-switch component): any placement is optimal; fill switches
        # in id order for determinism.
        labels = np.full(comp.size, -1, dtype=np.int64)
        pos = 0
        for local_idx, quota in enumerate(quotas):
            for s in range(pos, pos + quota):
                labels[s] = local_idx
            pos += quota
        return Partition(labels)
    objective = SimilarityObjective(
        comp.distance_table(), quotas, num_switches=comp.size
    )
    initial = _warm_start_for(comp, placed, quotas, old_partition)
    result = TabuSearch(restarts=restarts).run(
        objective, seed=seed, initial=initial
    )
    return result.best_partition


__all__ = [
    "TimedSchedule",
    "RepairComparison",
    "ClusterPlacement",
    "DegradedSchedule",
    "evaluate_partition",
    "repair_schedule",
    "full_reschedule",
    "compare_repair_strategies",
    "schedule_degraded",
]
