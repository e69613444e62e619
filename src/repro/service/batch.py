"""Micro-batching: coalesce requests sharing a topology, execute batches.

Two halves:

- **planning** (event-loop side): :func:`plan_batches` splits a drained
  queue batch into :class:`BatchGroup` objects — one per topology
  fingerprint — and, within a group, folds requests with identical
  *request* fingerprints into one computation whose result every
  duplicate's future receives.
- **execution** (worker side): :func:`execute_batch` is the top-level
  picklable function the persistent pool runs.  All requests of a group
  share one topology, so the up*/down* routing, the table of equivalent
  distances and the simulator routing table are built once per batch and
  then hit the worker's process-local LRU cache (:mod:`repro.distance.cache`)
  — which stays warm *across* batches because the pool is persistent.

Determinism: :func:`execute_request` is a pure function of the request
payload.  The solo path is literally ``execute_batch([payload])``, so a
request's canonical response dict is byte-identical whether it was served
alone, coalesced into a batch, or replayed from the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import cached_routing_table, topology_fingerprint
from repro.faults.degrade import degrade
from repro.faults.reschedule import schedule_degraded
from repro.service.protocol import (
    ScheduleRequest,
    ScheduleResponse,
    build_search,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.sweep import make_load_points, run_load_sweep
from repro.simulation.traffic import IntraClusterTraffic

if False:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.queue import Job


# --------------------------------------------------------------------- #
# planning (event-loop side)
# --------------------------------------------------------------------- #

@dataclass
class BatchGroup:
    """Requests sharing one topology fingerprint, deduplicated.

    ``entries[i]`` is the list of jobs whose request fingerprints are
    identical; ``entries[i][0]`` is the primary whose payload is executed
    and every job in the list receives the result.
    """

    topology_fp: str
    entries: List[List["Job"]] = field(default_factory=list)

    @property
    def unique(self) -> int:
        """Distinct computations this group needs."""
        return len(self.entries)

    @property
    def total(self) -> int:
        """Jobs (including coalesced duplicates) this group serves."""
        return sum(len(e) for e in self.entries)

    def payloads(self) -> List[Dict[str, Any]]:
        """The wire payloads to execute, one per unique request."""
        return [entry[0].payload for entry in self.entries]


def plan_batches(jobs: List["Job"]) -> List[BatchGroup]:
    """Group a drained queue batch by topology, dedup identical requests.

    Order-preserving on first occurrence (groups appear in the order their
    first job arrived; entries likewise), so planning is deterministic for
    a given arrival order.
    """
    groups: Dict[str, BatchGroup] = {}
    index: Dict[str, List["Job"]] = {}
    for job in jobs:
        topo_fp = topology_fingerprint(job.request.topology)
        group = groups.get(topo_fp)
        if group is None:
            group = groups[topo_fp] = BatchGroup(topology_fp=topo_fp)
        entry = index.get(job.fingerprint)
        if entry is not None:
            entry.append(job)
            continue
        entry = index[job.fingerprint] = [job]
        group.entries.append(entry)
    return list(groups.values())


# --------------------------------------------------------------------- #
# execution (worker side)
# --------------------------------------------------------------------- #

def execute_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one request payload; returns the canonical response dict.

    Pure: output depends only on ``payload``.
    """
    req = payload if isinstance(payload, ScheduleRequest) \
        else ScheduleRequest.from_dict(payload)
    fingerprint = req.fingerprint()
    if req.faults is not None and req.faults.num_faults:
        return _execute_degraded(req, fingerprint)
    scheduler = CommunicationAwareScheduler(
        req.topology, search=build_search(req.method, req.params)
    )
    result = scheduler.schedule(req.workload, seed=req.seed)
    simulation = None
    if req.simulate is not None:
        simulation = _run_simulation(scheduler, result, req)
    return ScheduleResponse(
        fingerprint=fingerprint,
        topology_name=req.topology.name,
        method=req.method,
        seed=req.seed,
        partition=result.partition,
        f_g=result.f_g,
        d_g=result.d_g,
        c_c=result.c_c,
        simulation=simulation,
    ).to_dict()


def execute_batch(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute a planned batch (requests sharing a topology), in order.

    The first request warms the process-local distance/routing caches;
    the rest of the batch reuses them.  Top-level and picklable — this is
    the function the service submits to its persistent worker pool.
    """
    return [execute_request(p) for p in payloads]


def _execute_degraded(req: ScheduleRequest,
                      fingerprint: str) -> Dict[str, Any]:
    """Serve a request whose topology arrived with failed links/switches.

    Reuses the fault subsystem's graceful degraded-mode scheduling: the
    response reports per-component placements (and which clusters no
    longer fit) instead of an error.  ``seconds`` is wall time and is
    deliberately dropped from the payload (determinism contract).
    """
    net = degrade(req.topology, req.faults)
    sched = schedule_degraded(net, req.workload, seed=req.seed)
    degraded = {
        "scenario": req.faults.label,
        "connected": sched.connected,
        "components": [
            {"switches": list(comp.switches),
             "hosts": comp.host_capacity}
            for comp in net.components
        ],
        "placements": [
            {
                "cluster": p.cluster_index,
                "name": p.cluster_name,
                "component": p.component_index,
                "switches": list(p.switches),
            }
            for p in sched.placements
        ],
        "component_c_c": {str(k): v for k, v in sched.component_c_c.items()},
        "unplaced": [p.cluster_name for p in sched.unplaced],
    }
    return ScheduleResponse(
        fingerprint=fingerprint,
        topology_name=req.topology.name,
        method=req.method,
        seed=req.seed,
        degraded=degraded,
    ).to_dict()


def _run_simulation(scheduler: CommunicationAwareScheduler, result,
                    req: ScheduleRequest) -> List[Dict[str, float]]:
    """The optional simulated-latency addendum (runs in the worker).

    ``workers=1``: this already executes on the service's pool; a nested
    pool per request would multiply processes, not throughput.
    """
    spec = req.simulate
    table = cached_routing_table(scheduler.routing)
    config = SimulationConfig(
        warmup_cycles=spec.warmup,
        measure_cycles=spec.measure,
        seed=req.seed,
        engine=spec.engine,
    )
    rates = make_load_points(spec.max_rate, n=spec.points)
    points = run_load_sweep(table, IntraClusterTraffic(result.mapping),
                            rates, config, workers=1)
    return [
        {
            "rate": point.rate,
            "accepted": point.result.accepted_flits_per_switch_cycle,
            "avg_latency": point.result.avg_latency,
        }
        for point in points
    ]


__all__ = [
    "BatchGroup",
    "plan_batches",
    "execute_request",
    "execute_batch",
]
