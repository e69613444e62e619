"""The chaos scenarios: inject each fault class, check the invariant.

Every scenario stands up a real daemon (:func:`running_service`), injects
one fault class through :mod:`repro.chaos.inject`, and classifies what
each request got back:

- ``reply`` — an ``ok`` envelope whose canonical payload is
  **byte-identical** to the fault-free result (computed independently in
  this process via :func:`repro.service.execute_request`);
- ``typed-error`` — an error envelope whose ``code`` is in
  :data:`repro.service.protocol.ERROR_CODES`;
- anything else — a hang past the scenario's bound, an untyped error, a
  reply with the wrong bytes — is an **invariant violation** and fails
  the scenario.

The invariant, stated once: *every accepted request terminates with a
byte-identical correct reply or an explicit typed error — never a hang,
never silent loss.*  Scenarios are deterministic given their seed (fault
plans are seeded, injection points are keyed on job sequence numbers
and frame indices), so a CI failure replays locally with the same seed.
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.inject import (
    ChaosProxy,
    ChaoticExecutor,
    corrupt_store_entry,
    kill_workers,
)
from repro.chaos.plan import crash_at, hang_at, mutate_frame, slow_at
from repro.obs import trace as _trace
from repro.service.batch import execute_request
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    ERROR_CODES,
    ScheduleRequest,
    decode_line,
    encode_line,
)
from repro.service.server import ServiceConfig, running_service
from repro.service.supervisor import BreakerConfig
from repro.topology.irregular import random_irregular_topology

#: Wall-clock bound on one scenario request: anything still unanswered
#: after this long counts as a hang (invariant violation).
REQUEST_BOUND_SECONDS = 60.0


@dataclass
class RequestOutcome:
    """How one request under chaos terminated."""

    fingerprint: str
    outcome: str                     # "reply" | "typed-error" | "violation"
    code: Optional[str] = None       # error code when outcome != "reply"
    byte_identical: Optional[bool] = None   # for "reply" outcomes
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this outcome satisfies the invariant."""
        if self.outcome == "reply":
            return bool(self.byte_identical)
        return self.outcome == "typed-error"


@dataclass
class ScenarioResult:
    """One scenario's verdict plus its per-request evidence."""

    name: str
    seed: int
    invariant_ok: bool
    detail: str = ""
    outcomes: List[RequestOutcome] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready summary (for ``repro chaos --json``)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "invariant_ok": self.invariant_ok,
            "detail": self.detail,
            "outcomes": [
                {"fingerprint": o.fingerprint[:12], "outcome": o.outcome,
                 "code": o.code, "byte_identical": o.byte_identical,
                 "ok": o.ok, "detail": o.detail}
                for o in self.outcomes
            ],
            "stats": self.stats,
        }


# --------------------------------------------------------------------- #
# request material
# --------------------------------------------------------------------- #

def _requests(n: int, *, seed: int, priority: int = 0) -> List[ScheduleRequest]:
    """``n`` distinct small requests (same 8-switch topology, new seeds)."""
    topo = random_irregular_topology(8, seed=11, name="chaos8")
    return [
        ScheduleRequest.build(topo, clusters=4, method="tabu",
                              seed=1000 * (seed + 1) + i, priority=priority)
        for i in range(n)
    ]


def _canon(payload: Dict[str, Any]) -> str:
    """Canonical JSON of a response payload (the byte-identity yardstick)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expected(request: ScheduleRequest) -> str:
    """The fault-free canonical payload, computed independently here."""
    return _canon(execute_request(request.to_dict()))


def _classify_reply(request: ScheduleRequest,
                    call: Callable[[], Dict[str, Any]]) -> RequestOutcome:
    """Run one client call and classify its outcome against the invariant."""
    fingerprint = request.fingerprint()
    start = time.monotonic()
    try:
        reply = call()
    except ServiceError as exc:
        if exc.code in ERROR_CODES:
            return RequestOutcome(fingerprint, "typed-error", code=exc.code)
        return RequestOutcome(fingerprint, "violation", code=exc.code,
                              detail=f"untyped error code {exc.code!r}")
    except Exception as exc:
        return RequestOutcome(fingerprint, "violation",
                              detail=f"{type(exc).__name__}: {exc}")
    elapsed = time.monotonic() - start
    if elapsed > REQUEST_BOUND_SECONDS:
        return RequestOutcome(fingerprint, "violation",
                              detail=f"reply took {elapsed:.1f}s (hang)")
    identical = _canon(reply["result"]) == _expected(request)
    return RequestOutcome(fingerprint, "reply", byte_identical=identical,
                          detail="" if identical else "payload bytes differ")


def _config(workdir: Path, **overrides: Any) -> ServiceConfig:
    """A chaos-friendly service config (ephemeral port, 20 s deadline)."""
    defaults: Dict[str, Any] = dict(
        port=0, workers=2,
        request_deadline=20.0, max_redispatch=2,
        breaker=BreakerConfig(failure_threshold=8, reset_timeout=2.0),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# --------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------- #

def scenario_worker_crash(seed: int, workdir: Path) -> ScenarioResult:
    """A worker dies mid-job; the job must be re-dispatched and served."""
    executor = ChaoticExecutor(crash_at(1), str(workdir / "latch"))
    config = _config(workdir, executor=executor)
    outcomes: List[RequestOutcome] = []
    with running_service(config) as service:
        host, port = service.address
        with ServiceClient(host, port, retries=0) as client:
            for request in _requests(2, seed=seed):
                outcomes.append(_classify_reply(
                    request, lambda r=request: client.submit(r)))
        stats = service.status().supervisor
    ok = (all(o.ok for o in outcomes)
          and all(o.outcome == "reply" for o in outcomes)
          and stats["restarts"] >= 1 and stats["redispatches"] >= 1)
    return ScenarioResult("worker_crash", seed, ok,
                          detail=f"restarts={stats['restarts']} "
                                 f"redispatches={stats['redispatches']}",
                          outcomes=outcomes, stats=stats)


def scenario_worker_hang(seed: int, workdir: Path) -> ScenarioResult:
    """A worker wedges; the deadline must trip typed, then service recovers."""
    executor = ChaoticExecutor(hang_at(1, delay=30.0), str(workdir / "latch"))
    config = _config(workdir, executor=executor, request_deadline=1.0)
    outcomes: List[RequestOutcome] = []
    requests = _requests(2, seed=seed)
    start = time.monotonic()
    with running_service(config) as service:
        host, port = service.address
        with ServiceClient(host, port, retries=0) as client:
            outcomes.append(_classify_reply(
                requests[0], lambda: client.submit(requests[0])))
            outcomes.append(_classify_reply(
                requests[1], lambda: client.submit(requests[1])))
        stats = service.status().supervisor
    elapsed = time.monotonic() - start
    ok = (outcomes[0].outcome == "typed-error"
          and outcomes[0].code == "deadline"
          and outcomes[1].outcome == "reply" and outcomes[1].ok
          and stats["deadline_trips"] >= 1
          and elapsed < REQUEST_BOUND_SECONDS)
    return ScenarioResult("worker_hang", seed, ok,
                          detail=f"deadline_trips={stats['deadline_trips']} "
                                 f"elapsed={elapsed:.1f}s",
                          outcomes=outcomes, stats=stats)


def scenario_crash_loop(seed: int, workdir: Path) -> ScenarioResult:
    """Workers crash on every attempt; the breaker must open (degraded)."""
    executor = ChaoticExecutor(crash_at(*range(1, 50)),
                               str(workdir / "latch"), once=False)
    config = _config(
        workdir, executor=executor, max_redispatch=1,
        breaker=BreakerConfig(failure_threshold=2, reset_timeout=30.0))
    outcomes: List[RequestOutcome] = []
    with running_service(config) as service:
        host, port = service.address
        with ServiceClient(host, port, retries=0) as client:
            requests = _requests(3, seed=seed)
            # First submit burns the re-dispatch budget -> typed "crashed"
            # and >= 2 breaker failures -> open.
            outcomes.append(_classify_reply(
                requests[0], lambda: client.submit(requests[0])))
            # Breaker now open: new work is rejected typed with a hint.
            for request in requests[1:]:
                outcomes.append(_classify_reply(
                    request, lambda r=request: client.submit(r)))
            alive = bool(client.ping().get("ok"))
            status = client.status()
        stats = service.status().supervisor
    degraded = [o for o in outcomes[1:] if o.code == "degraded"]
    ok = (outcomes[0].outcome == "typed-error"
          and outcomes[0].code in ("crashed", "degraded")
          and len(degraded) == len(outcomes) - 1
          and all(o.ok for o in outcomes)
          and alive and stats["breaker"]["state"] in ("open", "half_open"))
    return ScenarioResult(
        "crash_loop", seed, ok,
        detail=f"breaker={stats['breaker']['state']} "
               f"degraded_rejects={status.rejected.get('degraded', 0)}",
        outcomes=outcomes, stats=stats)


def scenario_torn_frames(seed: int, workdir: Path) -> ScenarioResult:
    """Flood the daemon with mutated frames; it must answer typed, then serve."""
    config = _config(workdir)
    outcomes: List[RequestOutcome] = []
    flood_stats = {"frames": 0, "typed": 0, "closed": 0, "served": 0}
    with running_service(config) as service:
        host, port = service.address
        request = _requests(1, seed=seed)[0]
        valid = encode_line({"op": "submit", "request": request.to_dict()})
        for i in range(40):
            frame = mutate_frame(valid, seed, i)
            flood_stats["frames"] += 1
            try:
                with socket.create_connection((host, port),
                                              timeout=10.0) as sock:
                    sock.sendall(frame)
                    sock.shutdown(socket.SHUT_WR)
                    raw = sock.makefile("rb").readline()
            except OSError:
                flood_stats["closed"] += 1
                continue
            if not raw:
                flood_stats["closed"] += 1
                continue
            try:
                reply = decode_line(raw)
            except Exception:
                outcomes.append(RequestOutcome(
                    f"flood-{i}", "violation",
                    detail="daemon sent an unparsable reply"))
                continue
            if reply.get("ok"):
                # The mutation happened to produce a well-formed request:
                # serving it is correct behaviour.
                flood_stats["served"] += 1
            else:
                code = (reply.get("error") or {}).get("code")
                if code in ERROR_CODES:
                    flood_stats["typed"] += 1
                else:
                    outcomes.append(RequestOutcome(
                        f"flood-{i}", "violation", code=code,
                        detail=f"untyped error code {code!r}"))
        # After the flood the daemon must still serve real work.
        with ServiceClient(host, port, retries=0) as client:
            outcomes.append(_classify_reply(
                request, lambda: client.submit(request)))
    ok = all(o.ok for o in outcomes) and outcomes[-1].outcome == "reply"
    return ScenarioResult("torn_frames", seed, ok,
                          detail=(f"frames={flood_stats['frames']} "
                                  f"typed={flood_stats['typed']} "
                                  f"closed={flood_stats['closed']} "
                                  f"served={flood_stats['served']}"),
                          outcomes=outcomes, stats=flood_stats)


def scenario_dropped_connection(seed: int, workdir: Path) -> ScenarioResult:
    """The connection dies between submit and reply; the client must heal."""
    config = _config(workdir)
    outcomes: List[RequestOutcome] = []
    with running_service(config) as service:
        host, port = service.address

        def reply_plan(conn: int, frame: int) -> str:
            # Drop the very first submit's reply (conn 0 frame 1 — frame 0
            # is the ping); forward everything else.
            return "drop" if (conn == 0 and frame == 1) else "forward"

        with ChaosProxy(host, port, reply_plan=reply_plan) as proxy:
            phost, pport = proxy.address
            with ServiceClient(phost, pport, retries=3) as client:
                client.ping()
                request = _requests(1, seed=seed)[0]
                outcomes.append(_classify_reply(
                    request, lambda: client.submit(request)))
            injected = proxy.faults_injected
        stats = {"proxy_faults": injected,
                 "served": dict(service.status().served)}
    ok = (all(o.ok for o in outcomes)
          and outcomes[0].outcome == "reply" and injected >= 1)
    return ScenarioResult("dropped_connection", seed, ok,
                          detail=f"proxy_faults={injected}",
                          outcomes=outcomes, stats=stats)


def scenario_store_corruption(seed: int, workdir: Path) -> ScenarioResult:
    """A stored result is corrupted in place; it must never be served."""
    config = _config(workdir)
    outcomes: List[RequestOutcome] = []
    with running_service(config) as service:
        host, port = service.address
        request = _requests(1, seed=seed)[0]
        with ServiceClient(host, port, retries=0) as client:
            outcomes.append(_classify_reply(
                request, lambda: client.submit(request)))
            corrupted = corrupt_store_entry(service.store,
                                            request.fingerprint())
            outcomes.append(_classify_reply(
                request, lambda: client.submit(request)))
        stats = {"corrupted": corrupted,
                 "corruptions_detected":
                     service.status().store["corruptions"]}
    ok = (corrupted and all(o.ok for o in outcomes)
          and all(o.outcome == "reply" for o in outcomes)
          and stats["corruptions_detected"] >= 1)
    return ScenarioResult(
        "store_corruption", seed, ok,
        detail=f"corruptions_detected={stats['corruptions_detected']}",
        outcomes=outcomes, stats=stats)


def scenario_pool_death(seed: int, workdir: Path) -> ScenarioResult:
    """Every worker is SIGKILLed mid-job; the job must still be served."""
    executor = ChaoticExecutor(slow_at(1, delay=2.0), str(workdir / "latch"))
    config = _config(workdir, executor=executor)
    outcomes: List[RequestOutcome] = []
    killed = 0
    with running_service(config) as service:
        host, port = service.address
        request = _requests(1, seed=seed)[0]
        holder: List[RequestOutcome] = []

        def _submit() -> None:
            with ServiceClient(host, port, retries=0) as client:
                holder.append(_classify_reply(
                    request, lambda: client.submit(request)))

        thread = threading.Thread(target=_submit, daemon=True)
        thread.start()
        # Give the slow job time to reach the worker, then murder it.
        deadline = time.monotonic() + 10.0
        while killed == 0 and time.monotonic() < deadline:
            time.sleep(0.25)
            killed = kill_workers(service.pool)
        thread.join(timeout=REQUEST_BOUND_SECONDS)
        hung = thread.is_alive()
        outcomes.extend(holder)
        stats = {**service.status().supervisor, "killed": killed}
    if hung:
        outcomes.append(RequestOutcome(request.fingerprint(), "violation",
                                       detail="submit never returned"))
    ok = (not hung and killed >= 1 and len(outcomes) == 1
          and outcomes[0].outcome == "reply" and outcomes[0].ok
          and stats["restarts"] >= 1)
    return ScenarioResult("pool_death", seed, ok,
                          detail=f"killed={killed} "
                                 f"restarts={stats.get('restarts')}",
                          outcomes=outcomes, stats=stats)


def scenario_wal_replay(seed: int, workdir: Path) -> ScenarioResult:
    """Accepted-but-unreplied work survives a daemon death via the journal."""
    wal_path = workdir / "service.wal"
    requests = _requests(3, seed=seed)
    # Incarnation 1: every accepted job hangs in its worker; exiting the
    # context kills the daemon and its workers with them pending — exactly
    # a crash after acceptance, since no done records were written.
    executor = ChaoticExecutor(hang_at(1, 2, 3, delay=REQUEST_BOUND_SECONDS),
                               str(workdir / "latch"))
    config1 = _config(workdir, wal_path=wal_path, executor=executor)
    accepted: List[str] = []
    with running_service(config1) as service:
        host, port = service.address
        with ServiceClient(host, port, retries=0) as client:
            for request in requests:
                reply = client.submit(request, wait=False)
                accepted.append(reply["ticket"])
    # Incarnation 2: same journal; pending work must replay through the
    # normal queue path and land in the store byte-identically.
    outcomes: List[RequestOutcome] = []
    config2 = _config(workdir, wal_path=wal_path)
    with running_service(config2) as service:
        host, port = service.address
        with ServiceClient(host, port, retries=0) as client:
            for request, ticket in zip(requests, accepted):
                deadline = time.monotonic() + REQUEST_BOUND_SECONDS
                reply: Optional[Dict[str, Any]] = None
                lost = ""
                while time.monotonic() < deadline:
                    try:
                        reply = client.result(ticket)
                    except ServiceError as exc:
                        lost = f"journaled request lost ({exc.code})"
                        break
                    if "result" in reply:
                        break
                    time.sleep(0.1)
                if lost or reply is None or "result" not in reply:
                    outcomes.append(RequestOutcome(
                        ticket, "violation",
                        detail=lost or "replayed result never appeared"))
                    continue
                identical = _canon(reply["result"]) == _expected(request)
                outcomes.append(RequestOutcome(
                    ticket, "reply", byte_identical=identical,
                    detail="" if identical else "payload bytes differ"))
        replays = service.metrics.counter("service.wal.replays").value
        stats = {"replayed": int(replays),
                 "wal": dict(service.wal.status())}
    ok = (len(accepted) == len(requests)
          and stats["replayed"] == len(requests)
          and all(o.ok and o.outcome == "reply" for o in outcomes))
    return ScenarioResult("wal_replay", seed, ok,
                          detail=f"accepted={len(accepted)} "
                                 f"replayed={stats['replayed']}",
                          outcomes=outcomes, stats=stats)


#: Registry: scenario name → callable(seed, workdir) → ScenarioResult.
SCENARIOS: Dict[str, Callable[[int, Path], ScenarioResult]] = {
    "worker_crash": scenario_worker_crash,
    "worker_hang": scenario_worker_hang,
    "crash_loop": scenario_crash_loop,
    "torn_frames": scenario_torn_frames,
    "dropped_connection": scenario_dropped_connection,
    "store_corruption": scenario_store_corruption,
    "pool_death": scenario_pool_death,
    "wal_replay": scenario_wal_replay,
}


def run_scenarios(names: Optional[List[str]] = None, *, seed: int = 0,
                  workdir: Optional[Path] = None) -> List[ScenarioResult]:
    """Run the named scenarios (default: all), each in its own subdir.

    Deterministic given ``seed``; unknown names raise ``ValueError``
    before anything runs.
    """
    chosen = list(names) if names else list(SCENARIOS)
    unknown = [n for n in chosen if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; available: "
            + ", ".join(sorted(SCENARIOS)))
    base = Path(workdir) if workdir is not None \
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    results = []
    for name in chosen:
        subdir = base / name
        subdir.mkdir(parents=True, exist_ok=True)
        with _trace.span("chaos.scenario", name=name, seed=seed) as sp:
            result = SCENARIOS[name](seed, subdir)
            sp.set(invariant_ok=result.invariant_ok)
        _trace.event("chaos.scenario.done", name=name,
                     invariant_ok=result.invariant_ok, detail=result.detail)
        results.append(result)
    return results


def render_report(results: List[ScenarioResult]) -> str:
    """A human-readable pass/fail table over scenario results."""
    lines = ["chaos report", "============"]
    width = max((len(r.name) for r in results), default=8)
    for r in results:
        verdict = "OK " if r.invariant_ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {verdict}  {r.detail}")
        for o in r.outcomes:
            if not o.ok:
                lines.append(f"{'':<{width}}    !! {o.fingerprint[:12]} "
                             f"{o.outcome} code={o.code} {o.detail}")
    passed = sum(r.invariant_ok for r in results)
    lines.append(f"{passed}/{len(results)} scenarios hold the invariant")
    return "\n".join(lines)


__all__ = [
    "REQUEST_BOUND_SECONDS",
    "RequestOutcome",
    "SCENARIOS",
    "ScenarioResult",
    "render_report",
    "run_scenarios",
    "scenario_crash_loop",
    "scenario_dropped_connection",
    "scenario_pool_death",
    "scenario_store_corruption",
    "scenario_torn_frames",
    "scenario_wal_replay",
    "scenario_worker_crash",
    "scenario_worker_hang",
]
