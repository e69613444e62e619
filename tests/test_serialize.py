"""Tests for the JSON codecs on the value classes (``to_dict``/``from_dict``)."""

import json

import pytest

from repro.core.mapping import LogicalCluster, Partition, Workload
from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.schema import validate_record
from repro.obs.trace import TraceEvent
from repro.service import ScheduleRequest, ScheduleResponse, ServiceStatus
from repro.topology.designed import four_rings_topology
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology


def save(payload, path):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def load(path):
    return json.loads(path.read_text())


class TestRoundTrips:
    def test_topology(self, tmp_path):
        topo = random_irregular_topology(12, seed=9)
        path = tmp_path / "t.json"
        save(topo.to_dict(), path)
        loaded = Topology.from_dict(load(path))
        assert loaded == topo
        assert loaded.name == topo.name

    def test_designed_topology(self, tmp_path):
        topo = four_rings_topology()
        path = tmp_path / "t.json"
        save(topo.to_dict(), path)
        assert Topology.from_dict(load(path)) == topo

    def test_partition(self, tmp_path):
        p = Partition([0, 0, 1, -1, 1])
        path = tmp_path / "p.json"
        save(p.to_dict(), path)
        loaded = Partition.from_dict(load(path))
        assert loaded == p
        assert (loaded.labels == p.labels).all()

    def test_workload(self, tmp_path):
        w = Workload([LogicalCluster("a", 8, comm_weight=2.5),
                      LogicalCluster("b", 4)])
        path = tmp_path / "w.json"
        save(w.to_dict(), path)
        loaded = Workload.from_dict(load(path))
        assert loaded.clusters[0].name == "a"
        assert loaded.clusters[0].comm_weight == 2.5
        assert loaded.total_processes == 12

    def test_dict_roundtrip_without_files(self):
        topo = random_irregular_topology(8, seed=0)
        assert Topology.from_dict(topo.to_dict()) == topo

    def test_trace_event_span(self, tmp_path):
        ev = TraceEvent(kind="span", name="sweep.load", t=10.0,
                        duration=1.25, span_id=4, parent_id=2,
                        attrs={"points": 9})
        path = tmp_path / "ev.json"
        save(ev.to_record(), path)
        record = load(path)
        assert TraceEvent.from_record(record) == ev
        assert validate_record(record) == "span"

    def test_trace_event_point(self):
        ev = TraceEvent(kind="event", name="sweep.point", t=3.0,
                        span_id=1, attrs={"rate": 0.01, "index": 1})
        record = ev.to_record()
        assert TraceEvent.from_record(record) == ev
        assert validate_record(record) == "event"

    def test_run_manifest(self, tmp_path):
        m = collect_manifest("simulate", ["--seed", "7"], seed=7,
                             engine="fast", workers=2,
                             extra={"note": "roundtrip"})
        path = tmp_path / "m.json"
        save(m.to_record(), path)
        record = load(path)
        assert RunManifest.from_record(record) == m
        assert validate_record(record) == "manifest"


class TestValidation:
    def test_wrong_tag_rejected(self):
        topo = random_irregular_topology(8, seed=0)
        with pytest.raises(ValueError, match="expected"):
            Partition.from_dict(topo.to_dict())

    def test_future_version_rejected(self):
        topo = random_irregular_topology(8, seed=0)
        d = topo.to_dict()
        d["version"] = 999
        with pytest.raises(ValueError, match="version"):
            Topology.from_dict(d)

    def test_payload_is_plain_json(self, tmp_path):
        topo = random_irregular_topology(8, seed=0)
        path = tmp_path / "t.json"
        save(topo.to_dict(), path)
        raw = load(path)
        assert raw["type"] == "topology"
        assert isinstance(raw["links"], list)


class TestServiceTypes:
    """Round-trips and strict rejection for the service's wire types."""

    @pytest.fixture()
    def request_obj(self):
        topo = random_irregular_topology(8, seed=3)
        return ScheduleRequest.build(topo, clusters=4, seed=5, priority=2)

    def test_schedule_request_round_trip(self, tmp_path, request_obj):
        path = tmp_path / "req.json"
        save(request_obj.to_dict(), path)
        loaded = ScheduleRequest.from_dict(load(path))
        assert loaded.to_dict() == request_obj.to_dict()
        assert loaded.fingerprint() == request_obj.fingerprint()

    def test_schedule_response_round_trip(self, tmp_path, request_obj):
        from repro.service.batch import execute_request

        payload = execute_request(request_obj.to_dict())
        resp = ScheduleResponse.from_dict(payload)
        path = tmp_path / "resp.json"
        save(resp.to_dict(), path)
        assert ScheduleResponse.from_dict(load(path)).to_dict() == payload

    def test_service_status_round_trip(self, tmp_path):
        from repro.service import ServiceConfig, running_service

        with running_service(ServiceConfig(port=0, workers=1)) as svc:
            status = svc.status()
        path = tmp_path / "status.json"
        save(status.to_dict(), path)
        assert ServiceStatus.from_dict(load(path)).to_dict() \
            == status.to_dict()

    def test_malformed_request_payload_rejected(self, request_obj):
        from repro.service import ProtocolError

        d = request_obj.to_dict()
        d["method"] = "quantum"
        with pytest.raises(ProtocolError):
            ScheduleRequest.from_dict(d)
        d2 = request_obj.to_dict()
        d2["extra_field"] = 1
        with pytest.raises(ProtocolError, match="unknown keys"):
            ScheduleRequest.from_dict(d2)

    def test_malformed_response_payload_rejected(self, request_obj):
        from repro.service import ProtocolError
        from repro.service.batch import execute_request

        payload = execute_request(request_obj.to_dict())
        payload["partition"] = {"type": "partition"}
        with pytest.raises(ProtocolError):
            ScheduleResponse.from_dict(payload)

    def test_malformed_status_payload_rejected(self):
        from repro.service import ProtocolError

        with pytest.raises(ProtocolError, match="missing"):
            ServiceStatus.from_dict({"type": "service_status"})
