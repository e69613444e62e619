"""repro.service — a backpressure-aware scheduling service.

The resident counterpart of the one-shot CLI: an asyncio daemon that
accepts JSON scheduling requests (topology + cluster spec + search
method) over a stream socket and answers with the deterministic mapping,
its F_G/D_G/C_c scores and, optionally, simulated latency — amortizing
topology analysis (up*/down* routing, tables of equivalent distances)
across requests instead of rebuilding it per invocation.

Layers (one module each):

- :mod:`~repro.service.protocol` — wire types, strict decoding, request
  fingerprints, the determinism contract;
- :mod:`~repro.service.store` — content-addressed TTL result store with
  integrity digests (corruption degrades to a recompute, never a wrong
  reply);
- :mod:`~repro.service.queue` — admission policy, backpressure,
  priority-aware load shedding and the bounded priority queue the
  dispatcher pops one job at a time;
- :mod:`~repro.service.batch` — the pure worker-side executor of one
  request;
- :mod:`~repro.service.supervisor` — deadlines, worker restart and
  re-dispatch, the idle-pool heartbeat and the circuit breaker that
  flips the daemon into degraded mode;
- :mod:`~repro.service.wal` — the write-ahead journal of accepted
  requests, replayed byte-identically after a daemon kill;
- :mod:`~repro.service.server` — the daemon tying it all to a persistent
  :class:`repro.parallel.WorkerPool`;
- :mod:`~repro.service.client` — the blocking client the CLI and the
  benchmarks use, with transparent reconnect for idempotent ops.

The invariant the chaos harness (:mod:`repro.chaos`) enforces across all
of it: every accepted request terminates with a byte-identical correct
reply or an explicit typed error — never a hang, never silent loss.

Entry points: ``repro serve`` / ``repro submit`` / ``repro status``, or
programmatically::

    from repro.service import ServiceConfig, running_service, ServiceClient

    with running_service(ServiceConfig(port=0)) as service:
        host, port = service.address
        with ServiceClient(host, port) as client:
            reply = client.submit(request)
"""

from importlib import import_module

from repro.service.batch import execute_request
from repro.service.client import IDEMPOTENT_OPS, ServiceClient, ServiceError
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    SEARCH_METHODS,
    ProtocolError,
    ScheduleRequest,
    ScheduleResponse,
    ServiceStatus,
    SimulateSpec,
    build_search,
    decode_line,
    encode_line,
)
from repro.service.store import ResultStore
from repro.service.wal import WalError, WriteAheadLog

# The daemon's asyncio modules load on first use, so a process that only
# encodes requests, executes them or talks to a daemon never imports
# asyncio (or ssl, which asyncio drags in).
_LAZY = {
    "queue": ("AdmissionError", "AdmissionPolicy", "BackpressureError",
              "Job", "JobQueue", "ShedError"),
    "server": ("DEFAULT_HOST", "DEFAULT_PORT", "SchedulerService",
               "ServiceConfig", "ServiceStartupError", "run_service",
               "running_service"),
    "supervisor": ("BreakerConfig", "CircuitBreaker", "CircuitOpenError",
                   "DeadlineExceededError", "PoolSupervisor",
                   "SupervisorError", "WorkerCrashError"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items()
                for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "BackpressureError",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DeadlineExceededError",
    "ERROR_CODES",
    "IDEMPOTENT_OPS",
    "Job",
    "JobQueue",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "PoolSupervisor",
    "ProtocolError",
    "ResultStore",
    "SEARCH_METHODS",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchedulerService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceStartupError",
    "ServiceStatus",
    "ShedError",
    "SimulateSpec",
    "SupervisorError",
    "WalError",
    "WorkerCrashError",
    "WriteAheadLog",
    "build_search",
    "decode_line",
    "encode_line",
    "execute_request",
    "run_service",
    "running_service",
]
