"""Worker-side execution of one service request.

:func:`execute_request` is the top-level picklable function the daemon's
persistent pool runs, one request per call.  Requests for a topology the
worker has seen before hit its process-local LRU cache
(:mod:`repro.distance.cache`) for the up*/down* routing, the table of
equivalent distances and the simulator routing table — the cache stays
warm across requests because the pool is persistent.

Determinism: :func:`execute_request` is a pure function of the request
payload, so a request's canonical response dict is byte-identical whether
it was computed by the daemon, replayed from the store, or executed
directly in-process.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import cached_routing_table
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
    "execute_request",
]
