"""Wire protocol of the scheduling service.

The service speaks newline-delimited JSON over a stream socket: each
message is one JSON object on one line, requests carry an ``"op"``
(``ping`` / ``status`` / ``submit`` / ``result`` / ``shutdown``) and every
reply carries ``"ok"``.  This module defines the value types exchanged —
:class:`ScheduleRequest`, :class:`ScheduleResponse`, :class:`ServiceStatus`
— their strict (de)serialization, the content-addressed request
fingerprint that drives deduplication, and the line framing.

Determinism contract
--------------------
A :class:`ScheduleResponse` contains *only* deterministic fields: the
mapping, the quality scores, the optional degraded-mode placement and the
optional simulated load sweep.  Wall-times, queue position and how the
request was served (computed, folded onto an identical in-flight request,
replayed from the store) travel in the reply *envelope*, never in the
response payload — so an identical request yields a byte-identical
response payload no matter which path served it.
``tests/service/test_server.py`` locks this down.

Malformed payloads raise :class:`ProtocolError` (a ``ValueError``): every
decoder validates types, ranges and key sets instead of trusting the
peer, and the server maps the exception to an error reply rather than a
crash.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.mapping import Partition, Workload
from repro.faults.model import FaultScenario
from repro.search.annealing import SimulatedAnnealing
from repro.search.base import SearchMethod
from repro.search.genetic import GeneticAlgorithm
from repro.search.gsa import GeneticSimulatedAnnealing
from repro.search.random_search import RandomSearch
from repro.search.tabu import TabuSearch
from repro.simulation.engine import ENGINE_NAMES
from repro.topology.graph import Topology
from repro.util.validation import check_tagged

PROTOCOL_VERSION = 1

#: Hard bound on one framed message; a peer sending more is cut off
#: before the JSON parser allocates unbounded memory.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed, oversized or semantically invalid wire payload."""


#: Every ``error.code`` the service emits.  The chaos harness classifies
#: request outcomes against this set: an error reply whose code is listed
#: here is a *typed* error (an acceptable outcome under fault injection);
#: anything else counts as an invariant violation.
ERROR_CODES = frozenset({
    "protocol",        # unparsable/oversized frame
    "bad-request",     # a frame that parsed but failed request validation
    "unknown-op",      # an op the daemon does not speak
    "unknown-ticket",  # result lookup for a fingerprint never seen
    "rejected",        # admission policy (permanent for this deployment)
    "backpressure",    # pending-work bound reached; carries retry_after
    "shed",            # evicted for higher-priority work; carries retry_after
    "degraded",        # circuit breaker open; carries retry_after
    "deadline",        # the request's execution deadline expired
    "crashed",         # workers died past the re-dispatch budget
    "failed",          # the job's own exception
})


#: Search methods a request may name.  Exhaustive search is deliberately
#: absent: its cost explodes with topology size, which is exactly what a
#: shared service must not let one request do (admission control caps the
#: rest).
SEARCH_METHODS: Dict[str, type] = {
    "tabu": TabuSearch,
    "annealing": SimulatedAnnealing,
    "genetic": GeneticAlgorithm,
    "gsa": GeneticSimulatedAnnealing,
    "random": RandomSearch,
}


def build_search(method: str, params: Optional[Dict[str, Any]] = None) -> SearchMethod:
    """Construct the named search method from request parameters.

    Parameters are validated against the constructor's signature (an
    unknown knob is a :class:`ProtocolError`, not a ``TypeError`` deep in
    a worker) and ``workers`` is forced to 1: requests already run on the
    service's process pool, and a nested pool per request would fork-bomb
    the host.
    """
    cls = SEARCH_METHODS.get(method)
    if cls is None:
        raise ProtocolError(
            f"unknown search method {method!r}; supported: "
            + ", ".join(sorted(SEARCH_METHODS))
        )
    kwargs = dict(params or {})
    if "workers" in kwargs:
        raise ProtocolError(
            "search parameter 'workers' is not accepted: parallelism is "
            "owned by the service's worker pool"
        )
    allowed = set(inspect.signature(cls.__init__).parameters) - {"self"}
    for key in kwargs:
        if key not in allowed:
            raise ProtocolError(
                f"search method {method!r} has no parameter {key!r}; "
                f"accepted: {', '.join(sorted(allowed - {'workers'}))}"
            )
    try:
        return cls(workers=1, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {method!r} parameters: {exc}") from None


# --------------------------------------------------------------------- #
# strict field readers
# --------------------------------------------------------------------- #

def _require_dict(obj: Any, what: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise ProtocolError(f"{what} must be a JSON object, got "
                            f"{type(obj).__name__}")
    return obj


def _check_keys(d: Dict[str, Any], *, required: set, optional: set,
                what: str) -> None:
    keys = set(d)
    missing = required - keys
    if missing:
        raise ProtocolError(f"{what} is missing {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ProtocolError(f"{what} has unknown keys {sorted(unknown)}")


def _int_field(d: Dict[str, Any], key: str, what: str, *, default=None,
               lo: Optional[int] = None, hi: Optional[int] = None) -> Any:
    value = d.get(key, default)
    if value is default and key not in d:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{what}.{key} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ProtocolError(f"{what}.{key} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ProtocolError(f"{what}.{key} must be <= {hi}, got {value}")
    return value


def _number_field(d: Dict[str, Any], key: str, what: str, *, default=None,
                  lo: Optional[float] = None) -> Any:
    value = d.get(key, default)
    if value is default and key not in d:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what}.{key} must be a number, got {value!r}")
    if lo is not None and not value > lo:
        raise ProtocolError(f"{what}.{key} must be > {lo}, got {value}")
    return float(value)


def _require_tagged(d: Any, tag: str) -> None:
    """Check a wire type's ``type`` tag and ``version``; ProtocolError if off."""
    _require_dict(d, tag)
    try:
        check_tagged(d, tag, PROTOCOL_VERSION)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _decode_via(decoder, payload: Any, what: str):
    """Run a value class's ``from_dict``, mapping failures (wrong tag,
    bad field types, inconsistent shapes) to ProtocolError."""
    _require_dict(payload, what)
    try:
        return decoder(payload)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {what}: {exc}") from None


# --------------------------------------------------------------------- #
# simulate spec
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SimulateSpec:
    """Optional request addendum: sweep the mapping through the simulator.

    Bounded on purpose — the admission policy re-checks ``points`` and
    ``measure`` so one request cannot monopolize a worker for minutes.
    """

    max_rate: float = 0.02
    points: int = 3
    warmup: int = 200
    measure: int = 600
    engine: str = "fast"

    def __post_init__(self):
        if not self.max_rate > 0:
            raise ProtocolError(f"simulate.max_rate must be > 0, "
                                f"got {self.max_rate}")
        if not 1 <= self.points <= 32:
            raise ProtocolError(f"simulate.points must be in 1..32, "
                                f"got {self.points}")
        if self.warmup < 0 or self.measure < 1:
            raise ProtocolError("simulate.warmup must be >= 0 and "
                                "simulate.measure >= 1")
        if self.engine not in ENGINE_NAMES:
            raise ProtocolError(
                f"simulate.engine must be one of {sorted(ENGINE_NAMES)}, "
                f"got {self.engine!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Encode as the plain dict embedded in a request payload."""
        return {
            "max_rate": self.max_rate,
            "points": self.points,
            "warmup": self.warmup,
            "measure": self.measure,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SimulateSpec":
        _require_dict(d, "simulate")
        _check_keys(d, required=set(),
                    optional={"max_rate", "points", "warmup", "measure",
                              "engine"},
                    what="simulate")
        engine = d.get("engine", "fast")
        if not isinstance(engine, str):
            raise ProtocolError(f"simulate.engine must be a string, "
                                f"got {engine!r}")
        return cls(
            max_rate=_number_field(d, "max_rate", "simulate", default=0.02,
                                   lo=0.0),
            points=_int_field(d, "points", "simulate", default=3, lo=1,
                              hi=32),
            warmup=_int_field(d, "warmup", "simulate", default=200, lo=0),
            measure=_int_field(d, "measure", "simulate", default=600, lo=1),
            engine=engine,
        )


# --------------------------------------------------------------------- #
# request
# --------------------------------------------------------------------- #

@dataclass
class ScheduleRequest:
    """One scheduling job: topology + workload + method + seed.

    ``priority`` orders the service queue (higher runs sooner) but does
    not influence the computed result, so it is excluded from the
    :meth:`fingerprint` — two requests differing only in priority are
    duplicates and share one computation.
    """

    topology: Topology
    workload: Workload
    method: str = "tabu"
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    priority: int = 0
    faults: Optional[FaultScenario] = None
    simulate: Optional[SimulateSpec] = None

    def __post_init__(self):
        if self.method not in SEARCH_METHODS:
            raise ProtocolError(
                f"unknown search method {self.method!r}; supported: "
                + ", ".join(sorted(SEARCH_METHODS))
            )
        # Fail on unknown/forbidden knobs at admission time, not in a
        # worker process half a pipeline later.
        build_search(self.method, self.params)
        if self.faults is not None:
            self.faults.validate(self.topology)

    @classmethod
    def build(cls, topology: Topology, *, clusters: int = 4,
              method: str = "tabu", params: Optional[Dict[str, Any]] = None,
              seed: int = 1, priority: int = 0,
              faults: Optional[FaultScenario] = None,
              simulate: Optional[SimulateSpec] = None) -> "ScheduleRequest":
        """Convenience constructor for the paper's uniform workloads."""
        if clusters <= 0 or topology.num_switches % clusters != 0:
            raise ProtocolError(
                f"{clusters} clusters do not evenly divide "
                f"{topology.num_switches} switches"
            )
        per = (topology.num_switches // clusters) * topology.hosts_per_switch
        return cls(topology=topology, workload=Workload.uniform(clusters, per),
                   method=method, params=dict(params or {}), seed=seed,
                   priority=priority, faults=faults, simulate=simulate)

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict (the wire form)."""
        d: Dict[str, Any] = {
            "type": "schedule_request",
            "version": PROTOCOL_VERSION,
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
            "method": self.method,
            "params": dict(self.params),
            "seed": self.seed,
            "priority": self.priority,
        }
        if self.faults is not None:
            d["faults"] = self.faults.to_dict()
        if self.simulate is not None:
            d["simulate"] = self.simulate.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Any) -> "ScheduleRequest":
        """Decode and validate a wire payload; raise ProtocolError if bad."""
        _require_tagged(d, "schedule_request")
        _check_keys(
            d,
            required={"type", "topology", "workload"},
            optional={"version", "method", "params", "seed", "priority",
                      "faults", "simulate"},
            what="schedule_request",
        )
        method = d.get("method", "tabu")
        if not isinstance(method, str):
            raise ProtocolError(f"schedule_request.method must be a string, "
                                f"got {method!r}")
        params = d.get("params", {})
        _require_dict(params, "schedule_request.params")
        topology = _decode_via(Topology.from_dict, d["topology"],
                               "schedule_request.topology")
        workload = _decode_via(Workload.from_dict, d["workload"],
                               "schedule_request.workload")
        faults = None
        if d.get("faults") is not None:
            faults = _decode_via(FaultScenario.from_dict, d["faults"],
                                 "schedule_request.faults")
        simulate = None
        if d.get("simulate") is not None:
            simulate = SimulateSpec.from_dict(d["simulate"])
        try:
            return cls(
                topology=topology,
                workload=workload,
                method=method,
                params=dict(params),
                seed=_int_field(d, "seed", "schedule_request", default=1),
                priority=_int_field(d, "priority", "schedule_request",
                                    default=0, lo=-1_000_000, hi=1_000_000),
                faults=faults,
                simulate=simulate,
            )
        except ProtocolError:
            raise
        except ValueError as exc:
            raise ProtocolError(f"invalid schedule_request: {exc}") from None

    # ------------------------------------------------------------------ #

    def fingerprint(self) -> str:
        """Content hash of everything that determines the response.

        Canonical JSON (sorted keys, compact separators) of the wire form
        minus ``priority`` — the key of the result store, the in-flight
        dedup table and the async-submit ticket.
        """
        d = self.to_dict()
        d.pop("priority", None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# response
# --------------------------------------------------------------------- #

@dataclass
class ScheduleResponse:
    """The deterministic result of one :class:`ScheduleRequest`.

    Exactly one of two shapes:

    - healthy topology — ``partition`` plus the ``f_g``/``d_g``/``c_c``
      scores (and ``simulation`` when requested);
    - faulted topology — ``degraded`` carries the per-component placement
      summary from :func:`repro.faults.schedule_degraded` and the score
      fields are ``None``.

    No timing or serving metadata lives here (see the module docstring's
    determinism contract).
    """

    fingerprint: str
    topology_name: str
    method: str
    seed: int
    partition: Optional[Partition] = None
    f_g: Optional[float] = None
    d_g: Optional[float] = None
    c_c: Optional[float] = None
    degraded: Optional[Dict[str, Any]] = None
    simulation: Optional[List[Dict[str, float]]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict — the *canonical payload*.

        Byte-for-byte identical for identical requests regardless of the
        serving path; the store persists exactly this dict.
        """
        d: Dict[str, Any] = {
            "type": "schedule_response",
            "version": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
            "topology_name": self.topology_name,
            "method": self.method,
            "seed": self.seed,
            "partition": (self.partition.to_dict()
                          if self.partition is not None else None),
            "f_g": self.f_g,
            "d_g": self.d_g,
            "c_c": self.c_c,
            "degraded": self.degraded,
            "simulation": self.simulation,
        }
        return d

    @classmethod
    def from_dict(cls, d: Any) -> "ScheduleResponse":
        _require_tagged(d, "schedule_response")
        _check_keys(
            d,
            required={"type", "fingerprint", "topology_name", "method",
                      "seed"},
            optional={"version", "partition", "f_g", "d_g", "c_c",
                      "degraded", "simulation"},
            what="schedule_response",
        )
        fingerprint = d["fingerprint"]
        if not isinstance(fingerprint, str) or len(fingerprint) != 64:
            raise ProtocolError(
                f"schedule_response.fingerprint must be a sha256 hex digest, "
                f"got {fingerprint!r}"
            )
        partition = None
        if d.get("partition") is not None:
            partition = _decode_via(Partition.from_dict, d["partition"],
                                    "schedule_response.partition")
        for key in ("f_g", "d_g", "c_c"):
            value = d.get(key)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))):
                raise ProtocolError(f"schedule_response.{key} must be a "
                                    f"number or null, got {value!r}")
        degraded = d.get("degraded")
        if degraded is not None:
            _require_dict(degraded, "schedule_response.degraded")
        simulation = d.get("simulation")
        if simulation is not None:
            if not isinstance(simulation, list):
                raise ProtocolError("schedule_response.simulation must be "
                                    "a list")
            for row in simulation:
                _require_dict(row, "schedule_response.simulation[*]")
        return cls(
            fingerprint=fingerprint,
            topology_name=str(d["topology_name"]),
            method=str(d["method"]),
            seed=_int_field(d, "seed", "schedule_response", default=1),
            partition=partition,
            f_g=d.get("f_g"),
            d_g=d.get("d_g"),
            c_c=d.get("c_c"),
            degraded=degraded,
            simulation=simulation,
        )


# --------------------------------------------------------------------- #
# status snapshot
# --------------------------------------------------------------------- #

@dataclass
class ServiceStatus:
    """A point-in-time snapshot of a running service (the ``status`` op)."""

    version: str
    uptime_seconds: float
    requests_total: int
    served: Dict[str, int]        # computed / store / inflight
    rejected: Dict[str, int]      # backpressure / admission / ... / deadline
    queue_depth: int
    queue_capacity: int
    inflight: int
    store: Dict[str, int]         # size / hits / misses / ... / corruptions
    pool: Dict[str, Any]          # workers / active
    supervisor: Optional[Dict[str, Any]] = None  # restarts / breaker / ...
    wal: Optional[Dict[str, Any]] = None         # path / pending / recovered
    console: Optional[Dict[str, Any]] = None     # host / port / requests

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict (the ``status`` reply body).

        The self-healing fields (``supervisor``, ``wal``) are emitted only
        when present, so snapshots from daemons predating them — and WAL
        fields from daemons running without a journal — round-trip
        unchanged.
        """
        d = {
            "type": "service_status",
            "version": PROTOCOL_VERSION,
            "package_version": self.version,
            "uptime_seconds": self.uptime_seconds,
            "requests_total": self.requests_total,
            "served": dict(self.served),
            "rejected": dict(self.rejected),
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "inflight": self.inflight,
            "store": dict(self.store),
            "pool": dict(self.pool),
        }
        if self.supervisor is not None:
            d["supervisor"] = dict(self.supervisor)
        if self.wal is not None:
            d["wal"] = dict(self.wal)
        if self.console is not None:
            d["console"] = dict(self.console)
        return d

    @classmethod
    def from_dict(cls, d: Any) -> "ServiceStatus":
        _require_tagged(d, "service_status")
        required = {"type", "package_version", "uptime_seconds",
                    "requests_total", "served", "rejected", "queue_depth",
                    "queue_capacity", "inflight", "store", "pool"}
        _check_keys(d, required=required,
                    optional={"version", "supervisor", "wal", "console"},
                    what="service_status")
        for key in ("served", "rejected", "store", "pool"):
            _require_dict(d[key], f"service_status.{key}")
        for key in ("supervisor", "wal", "console"):
            if d.get(key) is not None:
                _require_dict(d[key], f"service_status.{key}")
        return cls(
            version=str(d["package_version"]),
            uptime_seconds=float(d["uptime_seconds"]),
            requests_total=int(d["requests_total"]),
            served={str(k): int(v) for k, v in d["served"].items()},
            rejected={str(k): int(v) for k, v in d["rejected"].items()},
            queue_depth=int(d["queue_depth"]),
            queue_capacity=int(d["queue_capacity"]),
            inflight=int(d["inflight"]),
            store=dict(d["store"]),
            pool=dict(d["pool"]),
            supervisor=(dict(d["supervisor"])
                        if d.get("supervisor") is not None else None),
            wal=dict(d["wal"]) if d.get("wal") is not None else None,
            console=(dict(d["console"])
                     if d.get("console") is not None else None),
        )


# --------------------------------------------------------------------- #
# line framing
# --------------------------------------------------------------------- #

def encode_line(obj: Dict[str, Any]) -> bytes:
    """Frame one message: compact JSON + newline."""
    blob = json.dumps(obj, separators=(",", ":")) + "\n"
    data = blob.encode()
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {MAX_LINE_BYTES}-byte "
            "frame limit"
        )
    return data


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Parse one framed message; raise :class:`ProtocolError` on garbage."""
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(raw)} bytes exceeds the {MAX_LINE_BYTES}-byte "
            "frame limit"
        )
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"not a JSON message: {exc}") from None
    return _require_dict(obj, "message")


def error_envelope(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """An error reply: ``{"ok": false, "error": {"code", "message", ...}}``."""
    return {"ok": False, "error": {"code": code, "message": message, **extra}}


def ok_envelope(**fields: Any) -> Dict[str, Any]:
    """A success reply: ``{"ok": true, ...fields}``."""
    return {"ok": True, **fields}


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "SEARCH_METHODS",
    "build_search",
    "SimulateSpec",
    "ScheduleRequest",
    "ScheduleResponse",
    "ServiceStatus",
    "encode_line",
    "decode_line",
    "error_envelope",
    "ok_envelope",
]
