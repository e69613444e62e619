"""Wire-protocol tests: round-trips, fingerprints, strict rejection."""

from __future__ import annotations

import json

import pytest

from repro.faults.model import FaultScenario
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    SEARCH_METHODS,
    ScheduleRequest,
    ScheduleResponse,
    SimulateSpec,
    build_search,
    decode_line,
    encode_line,
    error_envelope,
    ok_envelope,
)
from repro.topology.irregular import random_irregular_topology


class TestBuildSearch:
    def test_every_registered_method_constructs(self):
        for name in SEARCH_METHODS:
            assert build_search(name) is not None

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown search method"):
            build_search("quantum")

    def test_workers_knob_is_forbidden(self):
        with pytest.raises(ProtocolError, match="workers"):
            build_search("tabu", {"workers": 8})

    def test_unknown_parameter_is_rejected_with_the_valid_set(self):
        with pytest.raises(ProtocolError, match="no parameter"):
            build_search("tabu", {"warp_factor": 9})

    def test_parameters_are_passed_through(self):
        search = build_search("tabu", {"restarts": 3})
        assert search.restarts == 3

    def test_exhaustive_and_astar_are_not_served(self):
        # Deliberate: their cost explodes with topology size, which a
        # shared service must not let one request impose.
        assert "exhaustive" not in SEARCH_METHODS
        assert "astar" not in SEARCH_METHODS


class TestScheduleRequestRoundTrip:
    def test_round_trip_preserves_everything(self, make_request):
        req = make_request(seed=5, priority=3, method="annealing")
        back = ScheduleRequest.from_dict(req.to_dict())
        assert back.to_dict() == req.to_dict()
        assert back.fingerprint() == req.fingerprint()

    def test_round_trip_with_faults_and_simulate(self, service_topo):
        req = ScheduleRequest.build(
            service_topo, clusters=4,
            faults=FaultScenario(links=(service_topo.links[0],)),
            simulate=SimulateSpec(points=2, warmup=10, measure=20),
        )
        back = ScheduleRequest.from_dict(req.to_dict())
        assert back.to_dict() == req.to_dict()
        assert back.faults is not None and back.simulate is not None

    def test_wire_form_is_json_serializable(self, make_request):
        json.dumps(make_request().to_dict())


class TestFingerprint:
    def test_priority_does_not_change_the_fingerprint(self, make_request):
        # Two requests differing only in priority are duplicates: they
        # share one computation and one store entry.
        assert (make_request(priority=0).fingerprint()
                == make_request(priority=9).fingerprint())

    def test_seed_method_and_topology_do(self, make_request):
        base = make_request().fingerprint()
        assert make_request(seed=2).fingerprint() != base
        assert make_request(method="random").fingerprint() != base
        other = random_irregular_topology(8, seed=99, name="svc8b")
        assert make_request(topology=other).fingerprint() != base

    def test_fingerprint_is_stable_across_encodings(self, make_request):
        req = make_request(seed=4)
        back = ScheduleRequest.from_dict(
            json.loads(json.dumps(req.to_dict())))
        assert back.fingerprint() == req.fingerprint()


class TestScheduleRequestRejection:
    def test_non_dict_payloads(self):
        for bad in (None, 42, "x", ["schedule_request"]):
            with pytest.raises(ProtocolError):
                ScheduleRequest.from_dict(bad)

    def test_wrong_type_tag(self, make_request):
        d = make_request().to_dict()
        d["type"] = "topology"
        with pytest.raises(ProtocolError, match="schedule_request"):
            ScheduleRequest.from_dict(d)

    def test_unknown_keys_are_rejected(self, make_request):
        d = make_request().to_dict()
        d["shoe_size"] = 43
        with pytest.raises(ProtocolError, match="unknown keys"):
            ScheduleRequest.from_dict(d)

    def test_missing_required_keys(self, make_request):
        d = make_request().to_dict()
        del d["workload"]
        with pytest.raises(ProtocolError, match="missing"):
            ScheduleRequest.from_dict(d)

    def test_future_version_is_rejected(self, make_request):
        d = make_request().to_dict()
        d["version"] = 99
        with pytest.raises(ProtocolError, match="newer"):
            ScheduleRequest.from_dict(d)

    def test_bad_seed_type(self, make_request):
        d = make_request().to_dict()
        d["seed"] = "seven"
        with pytest.raises(ProtocolError, match="seed"):
            ScheduleRequest.from_dict(d)

    def test_malformed_topology_payload(self, make_request):
        d = make_request().to_dict()
        d["topology"] = {"type": "topology", "version": 1}
        with pytest.raises(ProtocolError, match="topology"):
            ScheduleRequest.from_dict(d)

    def test_bad_simulate_spec(self, make_request):
        d = make_request().to_dict()
        d["simulate"] = {"points": 0}
        with pytest.raises(ProtocolError, match="points"):
            ScheduleRequest.from_dict(d)
        for engine in ("antigravity", "batch"):
            d["simulate"] = {"engine": engine}
            with pytest.raises(ProtocolError, match="engine"):
                ScheduleRequest.from_dict(d)

    def test_faults_must_reference_the_topology(self, service_topo):
        with pytest.raises(ValueError):
            ScheduleRequest.build(
                service_topo, clusters=4,
                faults=FaultScenario(links=((97, 98),)),
            )

    def test_clusters_must_divide_switches(self, service_topo):
        with pytest.raises(ProtocolError, match="divide"):
            ScheduleRequest.build(service_topo, clusters=3)


class TestScheduleResponse:
    def test_round_trip(self, make_request):
        from repro.service.batch import execute_request

        payload = execute_request(make_request().to_dict())
        back = ScheduleResponse.from_dict(payload)
        assert back.to_dict() == payload

    def test_bad_fingerprint_rejected(self, make_request):
        from repro.service.batch import execute_request

        payload = execute_request(make_request().to_dict())
        payload["fingerprint"] = "short"
        with pytest.raises(ProtocolError, match="fingerprint"):
            ScheduleResponse.from_dict(payload)

    def test_non_numeric_scores_rejected(self, make_request):
        from repro.service.batch import execute_request

        payload = execute_request(make_request().to_dict())
        payload["f_g"] = "great"
        with pytest.raises(ProtocolError, match="f_g"):
            ScheduleResponse.from_dict(payload)


class TestLineFraming:
    def test_encode_decode_round_trip(self):
        msg = ok_envelope(op="ping", n=3)
        assert decode_line(encode_line(msg)) == msg

    def test_garbage_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_line(b"{not json}\n")

    def test_non_object_json_is_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1,2,3]\n")

    def test_oversized_messages_are_refused_both_ways(self):
        big = {"blob": "x" * (MAX_LINE_BYTES + 1)}
        with pytest.raises(ProtocolError, match="frame limit"):
            encode_line(big)
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_envelopes(self):
        err = error_envelope("backpressure", "full", retry_after=0.5)
        assert err["ok"] is False
        assert err["error"]["retry_after"] == 0.5
        assert ok_envelope(x=1) == {"ok": True, "x": 1}
