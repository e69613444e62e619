"""Worker-side execution of one request: determinism, degraded mode, sweeps."""

from __future__ import annotations

import json

import pytest

from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import configure_cache
from repro.faults.model import FaultScenario
from repro.service.batch import execute_request
from repro.service.protocol import SimulateSpec, build_search


class TestExecutionDeterminism:
    def test_solo_equals_cold(self, make_request):
        # The determinism contract at the executor level: one request's
        # canonical payload is byte-identical with warm caches (after
        # other requests on the same topology) and with cold caches.
        reqs = [make_request(seed=s) for s in (1, 2, 3)]
        payloads = [r.to_dict() for r in reqs]
        warm = [execute_request(p) for p in payloads]
        cold = []
        for p in payloads:
            configure_cache(clear=True)
            cold.append(execute_request(p))
        for a, b in zip(warm, cold):
            assert json.dumps(a, sort_keys=True) \
                == json.dumps(b, sort_keys=True)

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
        a = execute_request(req.to_dict())
        b = execute_request(req.to_dict())
        assert a == b
        assert len(a["simulation"]) == 3
