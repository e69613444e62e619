"""Golden wire bytes: fingerprints, responses, the WAL and ``--save`` files.

The files under ``golden/`` pin, byte for byte, what crosses the socket,
the write-ahead journal and the CLI's ``--save`` files.  A codec change
that moves any of them would silently orphan stored results (the store
is keyed by fingerprint), strand journaled requests and break files
users already saved — so these bytes only change on a deliberate
wire-format bump, never as a side effect.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.model import FaultScenario
from repro.service import (
    ScheduleRequest,
    ScheduleResponse,
    SimulateSpec,
    execute_request,
)
from repro.service.protocol import encode_line
from repro.service.wal import WriteAheadLog
from repro.topology.irregular import random_irregular_topology

GOLDEN = Path(__file__).parent / "golden"

FINGERPRINTS = {
    "faulted": "6eb48e3aa10b301dd73861ea0db317dc"
               "6100b42313991bb4f0be3da3e8cd584a",
    "healthy": "5d3dfa2eebeeaccf6b0db5136d6e05cc"
               "b8054983e8eee9b11f0fbd37f02b0009",
}


def golden_request(name: str) -> ScheduleRequest:
    """The fixed requests the golden files were written from."""
    topo = random_irregular_topology(8, seed=11, name="golden8")
    faults = FaultScenario(links=[(0, 2)]) if name == "faulted" else None
    return ScheduleRequest.build(
        topo, clusters=2, seed=7, priority=3, faults=faults,
        simulate=SimulateSpec(max_rate=0.01, points=2, warmup=50,
                              measure=200))


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
class TestGoldenRequest:
    def test_submit_frame_and_fingerprint(self, name):
        req = golden_request(name)
        frame = encode_line({"op": "submit", "request": req.to_dict()})
        assert frame == (GOLDEN / f"{name}_request.jsonl").read_bytes()
        assert req.fingerprint() == FINGERPRINTS[name]

    def test_decoding_the_frame_re_encodes_it(self, name):
        raw = (GOLDEN / f"{name}_request.jsonl").read_bytes()
        payload = json.loads(raw)["request"]
        req = ScheduleRequest.from_dict(payload)
        assert encode_line({"op": "submit", "request": req.to_dict()}) == raw
        assert req.fingerprint() == FINGERPRINTS[name]

    def test_execute_request_response(self, name):
        raw = (GOLDEN / f"{name}_response.jsonl").read_bytes()
        response = execute_request(golden_request(name).to_dict())
        assert encode_line(response) == raw
        again = ScheduleResponse.from_dict(json.loads(raw)).to_dict()
        assert encode_line(again) == raw


def test_a_journaled_accept_replays(tmp_path):
    path = tmp_path / "accept.wal"
    shutil.copyfile(GOLDEN / "accept.wal", path)
    with WriteAheadLog(path) as wal:
        pending = wal.pending()
    assert [item["fp"] for item in pending] == [FINGERPRINTS["faulted"]]
    req = ScheduleRequest.from_dict(pending[0]["payload"])
    assert req.fingerprint() == FINGERPRINTS["faulted"]
    assert req.priority == pending[0]["priority"] == 3


def test_topology_save_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["topology", "--switches", "12", "--seed", "1",
                 "--save", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "topology.json").read_bytes()
    assert main(["topology", "--load", str(GOLDEN / "topology.json")]) == 0
    assert "switches:        12" in capsys.readouterr().out
