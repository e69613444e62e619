"""Batch planning and worker-side execution: grouping, dedup, determinism."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import configure_cache
from repro.faults.model import FaultScenario
from repro.service.batch import execute_batch, execute_request, plan_batches
from repro.service.protocol import SimulateSpec, build_search
from repro.service.queue import Job
from repro.topology.irregular import random_irregular_topology


def _jobs(requests):
    """Wrap requests as queue jobs (futures need a live loop)."""
    async def build():
        loop = asyncio.get_running_loop()
        return [
            Job(request=r, payload=r.to_dict(), fingerprint=r.fingerprint(),
                future=loop.create_future(), priority=r.priority)
            for r in requests
        ]
    return asyncio.run(build())


class TestPlanBatches:
    def test_groups_by_topology(self, make_request):
        other = random_irregular_topology(8, seed=77, name="svc8-other")
        jobs = _jobs([
            make_request(seed=1),
            make_request(seed=1, topology=other),
            make_request(seed=2),
        ])
        groups = plan_batches(jobs)
        assert [g.total for g in groups] == [2, 1]
        assert groups[0].topology_fp != groups[1].topology_fp

    def test_duplicates_fold_into_one_entry(self, make_request):
        jobs = _jobs([
            make_request(seed=1),
            make_request(seed=1, priority=5),   # same fingerprint
            make_request(seed=2),
        ])
        (group,) = plan_batches(jobs)
        assert group.total == 3
        assert group.unique == 2
        assert len(group.payloads()) == 2

    def test_planning_is_order_preserving(self, make_request):
        jobs = _jobs([make_request(seed=s) for s in (3, 1, 2)])
        (group,) = plan_batches(jobs)
        assert [e[0].request.seed for e in group.entries] == [3, 1, 2]

    def test_empty_input(self):
        assert plan_batches([]) == []


class TestExecutionDeterminism:
    def test_solo_equals_batched_equals_cold(self, make_request):
        # The determinism contract at the executor level: one request's
        # canonical payload is byte-identical alone, inside a batch, and
        # with cold caches.
        reqs = [make_request(seed=s) for s in (1, 2, 3)]
        payloads = [r.to_dict() for r in reqs]
        batched = execute_batch(payloads)
        solo = [execute_batch([p])[0] for p in payloads]
        cold = []
        for p in payloads:
            configure_cache(clear=True)
            cold.append(execute_request(p))
        for a, b, c in zip(batched, solo, cold):
            blob = lambda d: json.dumps(d, sort_keys=True)  # noqa: E731
            assert blob(a) == blob(b) == blob(c)

    def test_matches_direct_scheduler_call(self, make_request, service_topo):
        req = make_request(seed=9)
        payload = execute_request(req.to_dict())
        scheduler = CommunicationAwareScheduler(
            service_topo, search=build_search("tabu"))
        direct = scheduler.schedule(req.workload, seed=9)
        assert payload["f_g"] == direct.f_g
        assert payload["c_c"] == direct.c_c
        assert payload["partition"]["labels"] == list(direct.partition.labels)

    def test_response_carries_the_request_fingerprint(self, make_request):
        req = make_request(seed=4)
        assert execute_request(req.to_dict())["fingerprint"] \
            == req.fingerprint()


class TestDegradedExecution:
    def test_faulted_request_gets_a_degraded_response(self, service_topo,
                                                      make_request):
        req = make_request(
            faults=FaultScenario(links=(service_topo.links[0],)))
        payload = execute_request(req.to_dict())
        assert payload["partition"] is None
        assert payload["f_g"] is None
        degraded = payload["degraded"]
        assert degraded["scenario"].startswith("L")
        assert isinstance(degraded["placements"], list)
        assert json.dumps(payload)  # JSON-clean

    def test_degraded_execution_is_deterministic(self, service_topo,
                                                 make_request):
        req = make_request(
            faults=FaultScenario(links=(service_topo.links[1],)))
        a = execute_request(req.to_dict())
        configure_cache(clear=True)
        b = execute_request(req.to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSimulation:
    def test_simulate_spec_adds_the_sweep(self, make_request):
        req = make_request(
            simulate=SimulateSpec(points=2, warmup=10, measure=30))
        payload = execute_request(req.to_dict())
        sim = payload["simulation"]
        assert len(sim) == 2
        for row in sim:
            assert set(row) == {"rate", "accepted", "avg_latency"}

    def test_simulation_is_deterministic(self, make_request):
        req = make_request(
            simulate=SimulateSpec(points=2, warmup=10, measure=30))
        a = execute_request(req.to_dict())
        configure_cache(clear=True)
        b = execute_request(req.to_dict())
        assert a["simulation"] == b["simulation"]

    def test_vector_engine_request_is_deterministic(self, make_request):
        """``engine="vector"`` rides the same worker seam.

        Vector responses are NOT byte-identical to the fast lineage
        (statistical contract, DESIGN.md §6g), but the service's own
        determinism guarantee still holds: the same request must produce
        the same reply on every execution, warm or cold.
        """
        req = make_request(
            seed=3,
            simulate=SimulateSpec(points=3, warmup=10, measure=30,
                                  engine="vector"))
        a = execute_batch([req.to_dict()])[0]
        b = execute_batch([req.to_dict()])[0]
        assert a == b
        assert len(a["simulation"]) == 3
