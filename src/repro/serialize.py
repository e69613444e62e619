"""JSON serialization for the library's value objects.

Distance tables are expensive to build only relative to everything else,
but topologies and schedules are the artifacts users exchange ("run the
mapping I computed yesterday", "reproduce on my exact network"), so the
core value types round-trip through plain JSON:

- :class:`~repro.topology.graph.Topology`
- :class:`~repro.distance.table.DistanceTable`
- :class:`~repro.core.mapping.Partition`
- :class:`~repro.core.mapping.Workload`
- :class:`~repro.faults.model.FaultScenario`
- :class:`~repro.obs.trace.TraceEvent` / :class:`~repro.obs.manifest.RunManifest`
  (telemetry records, wrapped so the trace-file ``type`` field stays
  untouched inside the payload)
- :class:`~repro.service.protocol.ScheduleRequest` /
  :class:`~repro.service.protocol.ScheduleResponse` /
  :class:`~repro.service.protocol.ServiceStatus` (the service's wire
  types, so request files and stored results are first-class artifacts —
  ``repro submit --request file.json`` reads exactly this format)

Each payload carries a ``"type"`` tag and a ``"version"`` so formats can
evolve; :func:`load` dispatches on the tag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.mapping import LogicalCluster, Partition, Workload
from repro.distance.table import DistanceTable
from repro.faults.model import FaultScenario
from repro.obs.manifest import RunManifest
from repro.obs.trace import TraceEvent
from repro.reporting.study import StudySpec, VariationRecord
from repro.service.protocol import (
    ScheduleRequest,
    ScheduleResponse,
    ServiceStatus,
)
from repro.topology.graph import Topology

_VERSION = 1

PathLike = Union[str, Path]


# --------------------------------------------------------------------- #
# per-type encoders / decoders
# --------------------------------------------------------------------- #

def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """Encode a topology as a tagged JSON-ready dict."""
    return {
        "type": "topology",
        "version": _VERSION,
        "name": topo.name,
        "num_switches": topo.num_switches,
        "hosts_per_switch": topo.hosts_per_switch,
        "switch_ports": topo.switch_ports,
        "links": [list(l) for l in topo.links],
    }


def topology_from_dict(d: Dict[str, Any]) -> Topology:
    """Decode a topology payload produced by :func:`topology_to_dict`."""
    _check(d, "topology")
    return Topology(
        d["num_switches"],
        [tuple(l) for l in d["links"]],
        hosts_per_switch=d["hosts_per_switch"],
        switch_ports=d["switch_ports"],
        name=d.get("name", ""),
    )


def table_to_dict(table: DistanceTable) -> Dict[str, Any]:
    """Encode a distance table as a tagged JSON-ready dict."""
    payload = table.to_dict()
    payload["type"] = "distance_table"
    payload["version"] = _VERSION
    return payload


def table_from_dict(d: Dict[str, Any]) -> DistanceTable:
    """Decode a distance-table payload."""
    _check(d, "distance_table")
    return DistanceTable.from_dict(d)


def partition_to_dict(partition: Partition) -> Dict[str, Any]:
    """Encode a partition as a tagged JSON-ready dict."""
    return {
        "type": "partition",
        "version": _VERSION,
        "labels": [int(x) for x in partition.labels],
    }


def partition_from_dict(d: Dict[str, Any]) -> Partition:
    """Decode a partition payload."""
    _check(d, "partition")
    return Partition(d["labels"])


def workload_to_dict(workload: Workload) -> Dict[str, Any]:
    """Encode a workload (cluster names, sizes, weights)."""
    return {
        "type": "workload",
        "version": _VERSION,
        "clusters": [
            {
                "name": c.name,
                "num_processes": c.num_processes,
                "comm_weight": c.comm_weight,
            }
            for c in workload.clusters
        ],
    }


def workload_from_dict(d: Dict[str, Any]) -> Workload:
    """Decode a workload payload."""
    _check(d, "workload")
    return Workload([
        LogicalCluster(c["name"], c["num_processes"],
                       comm_weight=c.get("comm_weight", 1.0))
        for c in d["clusters"]
    ])


def fault_scenario_to_dict(scenario: FaultScenario) -> Dict[str, Any]:
    """Encode a fault scenario (failed links/switches) as a tagged dict."""
    payload = scenario.to_dict()
    payload["type"] = "fault_scenario"
    payload["version"] = _VERSION
    return payload


def fault_scenario_from_dict(d: Dict[str, Any]) -> FaultScenario:
    """Decode a fault-scenario payload."""
    _check(d, "fault_scenario")
    return FaultScenario.from_dict(d)


def trace_event_to_dict(ev: TraceEvent) -> Dict[str, Any]:
    """Encode a span/event telemetry record as a tagged dict.

    The native trace-file record (which has its own ``type`` of ``span``
    or ``event``) is nested under ``"record"`` so both tagging schemes
    stay intact.
    """
    return {
        "type": "trace_event",
        "version": _VERSION,
        "record": ev.to_record(),
    }


def trace_event_from_dict(d: Dict[str, Any]) -> TraceEvent:
    """Decode a trace-event payload produced by :func:`trace_event_to_dict`."""
    _check(d, "trace_event")
    return TraceEvent.from_record(d["record"])


def run_manifest_to_dict(manifest: RunManifest) -> Dict[str, Any]:
    """Encode a run manifest as a tagged dict (nested native record)."""
    return {
        "type": "run_manifest",
        "version": _VERSION,
        "record": manifest.to_record(),
    }


def run_manifest_from_dict(d: Dict[str, Any]) -> RunManifest:
    """Decode a run-manifest payload."""
    _check(d, "run_manifest")
    return RunManifest.from_record(d["record"])


# --------------------------------------------------------------------- #
# generic entry points
# --------------------------------------------------------------------- #

_ENCODERS = {
    Topology: topology_to_dict,
    DistanceTable: table_to_dict,
    Partition: partition_to_dict,
    Workload: workload_to_dict,
    FaultScenario: fault_scenario_to_dict,
    TraceEvent: trace_event_to_dict,
    RunManifest: run_manifest_to_dict,
    ScheduleRequest: ScheduleRequest.to_dict,
    ScheduleResponse: ScheduleResponse.to_dict,
    ServiceStatus: ServiceStatus.to_dict,
    VariationRecord: VariationRecord.to_dict,
    StudySpec: StudySpec.to_dict,
}

_DECODERS = {
    "topology": topology_from_dict,
    "distance_table": table_from_dict,
    "partition": partition_from_dict,
    "workload": workload_from_dict,
    "fault_scenario": fault_scenario_from_dict,
    "trace_event": trace_event_from_dict,
    "run_manifest": run_manifest_from_dict,
    "schedule_request": ScheduleRequest.from_dict,
    "schedule_response": ScheduleResponse.from_dict,
    "service_status": ServiceStatus.from_dict,
    "variation_record": VariationRecord.from_dict,
    "variation_study_spec": StudySpec.from_dict,
}


def to_dict(obj: Any) -> Dict[str, Any]:
    """Encode a supported object to a JSON-ready dict."""
    enc = _ENCODERS.get(type(obj))
    if enc is None:
        raise TypeError(
            f"cannot serialize {type(obj).__name__}; supported: "
            + ", ".join(t.__name__ for t in _ENCODERS)
        )
    return enc(obj)


def from_dict(d: Dict[str, Any]) -> Any:
    """Decode a tagged dict back to its object."""
    tag = d.get("type")
    dec = _DECODERS.get(tag)
    if dec is None:
        raise ValueError(
            f"unknown payload type {tag!r}; supported: "
            + ", ".join(sorted(_DECODERS))
        )
    return dec(d)


def save(obj: Any, path: PathLike) -> None:
    """Serialize a supported object to a JSON file."""
    Path(path).write_text(json.dumps(to_dict(obj), indent=2) + "\n")


def load(path: PathLike) -> Any:
    """Load any supported object from a JSON file."""
    return from_dict(json.loads(Path(path).read_text()))


def _check(d: Dict[str, Any], expected: str) -> None:
    if d.get("type") != expected:
        raise ValueError(f"expected a {expected!r} payload, got {d.get('type')!r}")
    version = d.get("version", 1)
    if version > _VERSION:
        raise ValueError(
            f"payload version {version} is newer than supported ({_VERSION})"
        )


__all__ = [
    "to_dict",
    "from_dict",
    "save",
    "load",
    "topology_to_dict",
    "topology_from_dict",
    "table_to_dict",
    "table_from_dict",
    "partition_to_dict",
    "partition_from_dict",
    "workload_to_dict",
    "workload_from_dict",
    "fault_scenario_to_dict",
    "fault_scenario_from_dict",
    "trace_event_to_dict",
    "trace_event_from_dict",
    "run_manifest_to_dict",
    "run_manifest_from_dict",
]
