"""The resident scheduling daemon: asyncio front-end over a worker pool.

Request lifecycle::

    client ──line-JSON──▶ connection handler
        │ store hit?  ──────────────▶ reply (served from "store")
        │ identical request in flight? ─▶ await its future ("inflight")
        │ admission check ──────────▶ reject ("rejected")
        │ queue.put_nowait ─────────▶ reject ("backpressure") when full
        ▼
    dispatcher (once a slot is free: pops the next job)
        ▼
    persistent WorkerPool ── execute_request ──▶ canonical response dict
        ▼
    result store (TTL) + every waiter's future resolved

Identical requests are computed once: a duplicate is served from the
store, or folds onto the in-flight future registered when the first copy
was admitted, so two queued jobs never share a fingerprint.

Every event is counted once, in the daemon's
:class:`~repro.obs.metrics.MetricsRegistry` (``SchedulerService.metrics``):
the server, queue, store, supervisor, journal and console write to it,
and the ``status`` op, the console's ``/metrics`` page and a ``--trace``
run's final metrics record all read it.  ``service.request`` spans go to
the active tracer.  Faulted topologies are answered via degraded-mode
scheduling (see :mod:`repro.service.batch`).

Determinism: the computed payload for a request is byte-identical whether
it is computed here, replayed from the store, or executed directly with
:func:`~repro.service.execute_request` — the serving path only
shows up in the reply envelope's ``served`` field.

Sandbox resilience: when the platform cannot run a process pool at all
(``fork`` forbidden), execution transparently falls back to a thread —
same results by purity of :func:`execute_request`, just no process
isolation.

Self-healing: the worker path runs under a
:class:`~repro.service.supervisor.PoolSupervisor` — per-job deadlines,
automatic restart and re-dispatch after worker crashes, an idle-pool
heartbeat, and a circuit breaker that flips the daemon into degraded
mode (typed ``degraded`` rejects with ``retry_after``) when the pool
crash-loops.  With ``wal_path`` set, every accepted request is queued,
then journaled fsync-durably *before* any reply refers to it
(:mod:`repro.service.wal`), and replayed through the normal queue path
on restart, so a daemon kill never silently loses accepted work.  The
invariant the chaos harness (:mod:`repro.chaos`) enforces: every
accepted request terminates with a byte-identical correct reply or an
explicit typed error — never a hang, never silent loss.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.parallel import WorkerPool, WorkersLike
from repro.service.batch import execute_request
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    ScheduleRequest,
    ServiceStatus,
    decode_line,
    encode_line,
    error_envelope,
    ok_envelope,
)
from repro.service.queue import (
    AdmissionError,
    AdmissionPolicy,
    BackpressureError,
    Job,
    JobQueue,
    ShedError,
)
from repro.service.store import ResultStore
from repro.service.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    PoolSupervisor,
)
from repro.service.wal import WriteAheadLog

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421

#: The event counters the ``status`` op reports, by section.
_SERVED = ("computed", "store", "inflight")
_REJECTED = ("backpressure", "admission", "protocol", "failed", "shed",
             "degraded", "deadline")
_STORE = ("hits", "misses", "evictions", "expirations", "corruptions")
_SUPERVISOR = ("restarts", "redispatches", "deadline_trips", "heartbeats",
               "heartbeat_misses")

#: Every counter the daemon's components write, created at zero so that
#: ``/metrics`` and a trace carry each one before its first event.
_COUNTERS = (
    "service.requests",
    *(f"service.served.{k}" for k in _SERVED),
    *(f"service.rejected.{k}" for k in _REJECTED),
    *(f"service.store.{k}" for k in _STORE),
    *(f"service.supervisor.{k}" for k in _SUPERVISOR),
    "service.supervisor.breaker_trips",
    "service.wal.accepts", "service.wal.dones", "service.wal.replays",
    "service.console.requests",
)


class ServiceStartupError(RuntimeError):
    """The daemon failed to come up (bind failure, startup hang, …)."""


def _default_executor(seq: int, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The production executor: :func:`execute_request`, seq ignored.

    The ``seq`` argument is the daemon's monotonically increasing job
    sequence number; the default executor ignores it, the chaos harness's
    :class:`~repro.chaos.inject.ChaoticExecutor` keys its deterministic
    fault plan on it.  Must stay a top-level function — it crosses the
    process-pool pickle boundary.
    """
    return execute_request(payload)


def _swallow_future_exception(future: "asyncio.Future") -> None:
    """Done-callback that consumes a future's exception (replay path)."""
    if not future.cancelled():
        future.exception()


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT          # 0 = ephemeral (tests/bench)
    workers: WorkersLike = None       # None → $REPRO_WORKERS or 1
    max_pending: int = 64
    store_ttl: Optional[float] = 300.0
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    # --- self-healing knobs ------------------------------------------ #
    request_deadline: Optional[float] = None   # s per job attempt; None=off
    max_redispatch: int = 2           # crash re-dispatch budget per job
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    heartbeat_interval: Optional[float] = None  # s between idle probes
    wal_path: Optional[Union[str, Path]] = None  # accepted-request journal
    # --- operator console -------------------------------------------- #
    console_port: Optional[int] = None  # HTTP console; None=off, 0=ephemeral
    executor: Callable[[int, Dict[str, Any]],
                       Dict[str, Any]] = _default_executor


class SchedulerService:
    """The daemon: queue + dispatcher + persistent pool + store, one loop."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        # The one counter store: a ``--trace`` run's registry when one is
        # active here, else the daemon's own.  The loop runs under it.
        self.metrics = _metrics.current_registry() or MetricsRegistry()
        for name in _COUNTERS:
            self.metrics.counter(name)
        self.store = ResultStore(ttl=self.config.store_ttl)
        self.pool = WorkerPool(self.config.workers)
        self.queue: Optional[JobQueue] = None       # built on the loop
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._job_tasks: set = set()
        self._inflight: Dict[str, Job] = {}
        self._stop_event: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self.supervisor = PoolSupervisor(
            self.pool,
            deadline=self.config.request_deadline,
            max_redispatch=self.config.max_redispatch,
            breaker=CircuitBreaker(self.config.breaker),
            heartbeat_interval=self.config.heartbeat_interval,
        )
        self.wal: Optional[WriteAheadLog] = None     # opened on start()
        self.console = None                          # ConsoleServer on start()
        self._job_seq = 0

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start(self) -> Tuple[str, int]:
        """Bind the socket, start the dispatcher; returns (host, port)."""
        self.queue = JobQueue(self.config.max_pending)
        self._stop_event = asyncio.Event()
        # Bound the jobs handed to the pool at once: when every slot is
        # taken the dispatcher stops popping, the queue fills, and clients
        # see backpressure — instead of unbounded fan-out hiding overload
        # inside the executor's own queue.
        self._slots = asyncio.Semaphore(max(2, 2 * self.pool.workers))
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._started_at = time.monotonic()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        await self.supervisor.start()
        if self.config.wal_path is not None:
            self.wal = WriteAheadLog(self.config.wal_path)
            await self._replay_wal()
        if self.config.console_port is not None:
            # Imported here: the reporting layer is optional at runtime
            # and the service must not pull it in when the console is off.
            from repro.reporting.console import ConsoleServer
            from repro.reporting.html import render_status_page

            self.console = ConsoleServer(
                metrics=self._console_metrics,
                status=lambda: self.status().to_dict(),
                report=lambda: render_status_page(self.status().to_dict()),
            )
            chost, cport = await self.console.start(
                self.config.host, self.config.console_port)
            _trace.event("service.console.started", host=chost, port=cport)
        _trace.event("service.started", host=self.address[0],
                     port=self.address[1], workers=self.pool.workers)
        return self.address

    async def _replay_wal(self) -> None:
        """Re-queue every accepted-but-unreplied request from the journal.

        Replayed jobs flow through the normal queue path with internal
        futures: results land in the store (and settle the journal) just
        like live traffic, so a client re-asking for a fingerprint its
        killed daemon had accepted gets the byte-identical reply from
        the store.
        """
        pending = self.wal.pending()
        if not pending:
            return
        loop = asyncio.get_running_loop()
        replayed = 0
        for item in pending:
            try:
                request = ScheduleRequest.from_dict(item["payload"])
            except ProtocolError:
                # A journal entry this build can no longer parse: settle
                # it rather than crash-loop on every restart.
                self.wal.append_done(item["fp"])
                continue
            fingerprint = item["fp"]
            if self.store.get(fingerprint) is not None:
                self.wal.append_done(fingerprint)
                continue
            future = loop.create_future()
            job = Job(payload=request.to_dict(), fingerprint=fingerprint,
                      future=future, priority=item["priority"])
            try:
                self.queue.put_nowait(job)
            except BackpressureError:   # pragma: no cover - tiny queues
                break
            self._inflight[fingerprint] = job
            future.add_done_callback(
                lambda _f, fp=fingerprint: self._inflight.pop(fp, None))
            # No client awaits a replayed future; retrieve its outcome so
            # a failure cannot surface as an "exception never retrieved".
            future.add_done_callback(_swallow_future_exception)
            replayed += 1
        _metrics.inc("service.wal.replays", replayed)
        _trace.event("service.wal.replayed", count=replayed)

    def request_stop(self) -> None:
        """Signal the daemon to stop (safe from any thread via its loop)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then shut down cleanly."""
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, fail queued work, kill and reap the pool."""
        if self.console is not None:
            await self.console.stop()
            self.console = None
        await self.supervisor.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        for task in list(self._job_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if self.queue is not None:
            for job in self.queue.drain():
                if not job.future.done():
                    job.future.set_exception(
                        ConnectionError("service is shutting down"))
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(
                    ConnectionError("service is shutting down"))
        self._inflight.clear()
        # Every waiter has been failed, so nobody awaits the jobs still
        # running: kill and reap the workers instead of waiting for them
        # (a job that never returns would otherwise block shutdown).  The
        # journal keeps their accept records for the next incarnation.
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.terminate)
        if self.wal is not None:
            # Queued-but-unreplied requests stay journaled: the next
            # incarnation replays them.  Close drains and fsyncs.
            await asyncio.get_running_loop().run_in_executor(
                None, self.wal.close)
        _trace.event("service.stopped")

    # -------------------------------------------------------------- #
    # dispatcher: queue → pool, one job at a time
    # -------------------------------------------------------------- #

    async def _dispatch_loop(self) -> None:
        while True:
            await self._slots.acquire()        # capacity before popping work
            try:
                job = await self.queue.get()
            except BaseException:
                self._slots.release()
                raise
            task = asyncio.create_task(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._on_job_done)

    def _on_job_done(self, task: "asyncio.Task") -> None:
        self._job_tasks.discard(task)
        self._slots.release()

    async def _run_job(self, job: Job) -> None:
        """Execute one job under supervision; settle its future and journal.

        The supervisor owns the resilience policy — per-attempt deadline,
        restart + re-dispatch on worker crashes, circuit-breaker
        accounting and the sandbox thread fallback; its failures are
        typed and become typed error replies.
        """
        self._job_seq += 1
        try:
            result = await self.supervisor.run(
                self.config.executor, self._job_seq, job.payload)
        except Exception as exc:
            # The client gets an explicit typed error — the request is
            # settled, so the journal entry is too.  Counted here, once
            # per job under its own code, however many clients wait; a
            # crash past the re-dispatch budget or the job's own
            # exception counts as ``failed``.
            code = getattr(exc, "code", None)
            reason = code if code in ("deadline", "degraded") else "failed"
            _metrics.inc(f"service.rejected.{reason}")
            self._wal_done(job.fingerprint)
            if not job.future.done():
                job.future.set_exception(exc)
            return
        self.store.put(job.fingerprint, result)
        self._wal_done(job.fingerprint)
        if not job.future.done():
            job.future.set_result(result)

    def _wal_done(self, fingerprint: str) -> None:
        """Settle a journal entry once its request has a definite outcome."""
        if self.wal is not None:
            self.wal.append_done(fingerprint)

    # -------------------------------------------------------------- #
    # connection handling
    # -------------------------------------------------------------- #

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    _metrics.inc("service.rejected.protocol")
                    writer.write(encode_line(error_envelope(
                        "protocol", "message exceeds the frame limit")))
                    await writer.drain()
                    break
                if not raw:
                    break
                stop_after = False
                try:
                    message = decode_line(raw)
                    op = message.get("op")
                    if op == "shutdown":
                        stop_after = True
                    reply = await self._dispatch_op(message)
                except ProtocolError as exc:
                    _metrics.inc("service.rejected.protocol")
                    reply = error_envelope("protocol", str(exc))
                writer.write(encode_line(reply))
                await writer.drain()
                if stop_after:
                    self.request_stop()
                    break
        except asyncio.CancelledError:
            # Only stop() cancels connection tasks; finishing normally keeps
            # asyncio's stream protocol from logging the cancellation.
            pass
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch_op(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        if op == "ping":
            from repro import __version__
            return ok_envelope(op="ping", version=__version__)
        if op == "status":
            return ok_envelope(status=self.status().to_dict())
        if op == "submit":
            return await self._handle_submit(message)
        if op == "result":
            return self._handle_result(message)
        if op == "shutdown":
            return ok_envelope(stopping=True)
        return error_envelope("unknown-op", f"unknown op {op!r}")

    async def _handle_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            request = ScheduleRequest.from_dict(message.get("request"))
        except ProtocolError as exc:
            _metrics.inc("service.rejected.protocol")
            return error_envelope("bad-request", str(exc))
        wait = message.get("wait", True)
        if not isinstance(wait, bool):
            return error_envelope("bad-request", "'wait' must be a boolean")
        fingerprint = request.fingerprint()
        _metrics.inc("service.requests")
        with _trace.span("service.request", fingerprint=fingerprint[:12],
                         method=request.method) as sp:
            stored = self.store.get(fingerprint)
            if stored is not None:
                _metrics.inc("service.served.store")
                sp.set(served="store")
                return ok_envelope(result=stored, served={"from": "store"})
            pending = self._inflight.get(fingerprint)
            if pending is not None:
                # Fold onto the pending job, but reply no sooner than its
                # accept record is durable.
                if pending.accepted is not None:
                    await asyncio.shield(pending.accepted)
                if not wait:
                    return ok_envelope(ticket=fingerprint, status="pending")
                sp.set(served="inflight")
                return await self._await_future(pending.future, "inflight")
            try:
                self.config.admission.check(request)
            except AdmissionError as exc:
                _metrics.inc("service.rejected.admission")
                sp.set(served="rejected")
                return error_envelope("rejected", str(exc))
            retry_after = self.supervisor.breaker.reject_after()
            if retry_after is not None:
                # Degraded mode: the worker path is crash-looping; reject
                # new work with a hint instead of queueing doomed jobs.
                _metrics.inc("service.rejected.degraded")
                sp.set(served="degraded")
                return error_envelope(
                    "degraded",
                    "the service is degraded (worker path failing); "
                    "retry later",
                    retry_after=round(retry_after, 3))
            future = asyncio.get_running_loop().create_future()
            job = Job(payload=request.to_dict(), fingerprint=fingerprint,
                      future=future, priority=request.priority)
            try:
                victim = self.queue.put_nowait(job)
            except BackpressureError as exc:
                _metrics.inc("service.rejected.backpressure")
                sp.set(served="backpressure")
                return error_envelope("backpressure", str(exc),
                                      retry_after=exc.retry_after)
            if victim is not None:
                # A lower-priority queued job made room: fail it with a
                # typed shed error (its waiters get retry_after) and
                # settle its journal entry — an explicit outcome, not
                # silent loss.
                _metrics.inc("service.rejected.shed")
                sp.set(shed=victim.fingerprint[:12])
                self._wal_done(victim.fingerprint)
                if not victim.future.done():
                    victim.future.set_exception(ShedError(
                        "evicted by a higher-priority request; retry later"))
            # Register at admission, before the WAL await, so concurrent
            # duplicates fold onto this job instead of being queued and
            # journaled again.
            self._inflight[fingerprint] = job
            future.add_done_callback(
                lambda _f, fp=fingerprint: self._inflight.pop(fp, None))
            # Journal *after* the queue admitted the job but *before* any
            # reply: a request is only observably accepted once the client
            # hears back, and by then the accept record is fsync-durable.
            if self.wal is not None:
                job.accepted = asyncio.wrap_future(self.wal.append_accept(
                    fingerprint, job.payload, request.priority))
                await job.accepted
            if not wait:
                # Nobody awaits a ticketed future directly (results are
                # read back through the store), so mark any terminal
                # exception retrieved to keep shutdown logs clean.
                future.add_done_callback(_swallow_future_exception)
                return ok_envelope(ticket=fingerprint, status="queued")
            sp.set(served="computed")
            return await self._await_future(future, "computed")

    def _reply_timeout(self) -> Optional[float]:
        """Absolute never-hang bound on one submit's reply future.

        The supervisor's per-attempt deadline normally resolves the
        future first (with a typed error); this backstop covers the
        pathological remainder — a wedged dispatcher, a future nothing
        will ever complete — so a waiting client always hears *something*
        within a bounded time.  ``None`` (no deadline configured) keeps
        the historical wait-forever behaviour.
        """
        deadline = self.config.request_deadline
        if deadline is None:
            return None
        return deadline * (self.config.max_redispatch + 2) + 30.0

    def _error_reply(self, exc: BaseException) -> Dict[str, Any]:
        """Map a job's exception to a typed error envelope.

        Counts nothing: the job was counted once when it failed (or was
        shed), not once per waiting client.
        """
        code = getattr(exc, "code", None) or "failed"
        extra: Dict[str, Any] = {}
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            extra["retry_after"] = round(float(retry_after), 3)
        message = str(exc) or type(exc).__name__
        if code == "failed":
            message = f"{type(exc).__name__}: {exc}"
        return error_envelope(code, message, **extra)

    async def _await_future(self, future: "asyncio.Future",
                            source: str) -> Dict[str, Any]:
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), self._reply_timeout())
        except Exception as exc:
            if future.done():
                # The job's own error — a supervisor deadline included,
                # which is a TimeoutError too.
                return self._error_reply(exc)
            _metrics.inc("service.rejected.deadline")
            return error_envelope(
                "deadline",
                "no result within the service's reply bound; the request "
                "was dropped")
        _metrics.inc(f"service.served.{source}")
        return ok_envelope(result=result, served={"from": source})

    def _handle_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        ticket = message.get("ticket")
        if not isinstance(ticket, str):
            return error_envelope("bad-request", "'ticket' must be a string")
        stored = self.store.get(ticket)
        if stored is not None:
            return ok_envelope(result=stored, served={"from": "store"})
        if ticket in self._inflight:
            return ok_envelope(ticket=ticket, status="pending")
        return error_envelope("unknown-ticket",
                              f"no stored or pending result for {ticket!r}")

    # -------------------------------------------------------------- #
    # status
    # -------------------------------------------------------------- #

    def status(self) -> ServiceStatus:
        """A deterministic-schema snapshot for the ``status`` op.

        The one reader of the daemon's counters: every count comes from
        :attr:`metrics`, the rest is the components' current state.
        """
        from repro import __version__

        def count(name: str) -> int:
            return int(self.metrics.counter(name).value)

        supervisor = self.supervisor.status()
        supervisor = {
            **{k: count(f"service.supervisor.{k}") for k in _SUPERVISOR},
            **supervisor,
            "breaker": {**supervisor["breaker"],
                        "trips": count("service.supervisor.breaker_trips")},
        }
        return ServiceStatus(
            version=__version__,
            uptime_seconds=round(time.monotonic() - self._started_at, 3),
            requests_total=count("service.requests"),
            served={k: count(f"service.served.{k}") for k in _SERVED},
            rejected={k: count(f"service.rejected.{k}") for k in _REJECTED},
            queue_depth=self.queue.depth if self.queue is not None else 0,
            queue_capacity=self.config.max_pending,
            inflight=len(self._inflight),
            store={"size": len(self.store),
                   **{k: count(f"service.store.{k}") for k in _STORE}},
            pool={
                "workers": self.pool.workers,
                "active": self.pool.active,
                "thread_fallback": self.supervisor.thread_fallback,
            },
            supervisor=supervisor,
            wal=(self.wal.status() if self.wal is not None else None),
            console=(
                {"host": self.console.address[0],
                 "port": self.console.address[1],
                 "requests": count("service.console.requests")}
                if self.console is not None
                and self.console.address is not None else None
            ),
        )

    def _console_metrics(self) -> str:
        """The ``/metrics`` body: the daemon's registry as Prometheus text.

        Sets the point-in-time gauges first; the counters, the queue
        depth gauge and any histograms are already in :attr:`metrics`.
        """
        from repro.obs.export import render_prometheus

        gauges = {
            "service.uptime_seconds": time.monotonic() - self._started_at,
            "service.queue_capacity": self.config.max_pending,
            "service.inflight": len(self._inflight),
            "service.store.size": len(self.store),
            "service.pool.workers": self.pool.workers,
            "service.pool.active": self.pool.active,
        }
        for name, value in gauges.items():
            self.metrics.gauge(name).set(value)
        return render_prometheus(self.metrics.snapshot())


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #

def run_service(config: Optional[ServiceConfig] = None, *,
                ready_message: bool = True) -> int:
    """Run a service until SIGINT/SIGTERM or a ``shutdown`` op (blocking).

    The ``repro serve`` entry point.  Returns a process exit code; the
    pool's workers are reaped on every exit path (the KeyboardInterrupt
    teardown contract of :class:`repro.parallel.WorkerPool`).
    """
    service = SchedulerService(config)

    async def _main() -> None:
        host, port = await service.start()
        if ready_message:
            print(f"repro service listening on {host}:{port} "
                  f"(workers={service.pool.workers}, "
                  f"max_pending={service.config.max_pending})", flush=True)
        await service.serve_until_stopped()

    try:
        with _metrics.use_registry(service.metrics):
            asyncio.run(_main())
    except KeyboardInterrupt:
        service.pool.terminate()
        if ready_message:
            print("interrupted — workers reaped", flush=True)
        return 130
    return 0


@contextlib.contextmanager
def running_service(config: Optional[ServiceConfig] = None):
    """Run a service on a background thread; yields it with ``.address``.

    The harness used by tests and the chaos benchmark::

        with running_service(ServiceConfig(port=0)) as service:
            host, port = service.address
            ...

    On exit the daemon is stopped and its pool's workers killed and
    reaped.
    """
    service = SchedulerService(config)
    started = threading.Event()
    failure: List[BaseException] = []
    loop_holder: Dict[str, asyncio.AbstractEventLoop] = {}

    async def _main() -> None:
        try:
            await service.start()
        except BaseException as exc:  # bind failures surface to the caller
            failure.append(exc)
            started.set()
            return  # quiet thread exit; the caller raises typed below
        loop_holder["loop"] = asyncio.get_running_loop()
        started.set()
        await service.serve_until_stopped()

    def _run() -> None:
        with _metrics.use_registry(service.metrics):
            asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    came_up = started.wait(timeout=30.0)
    if failure:
        thread.join(timeout=5.0)
        raise ServiceStartupError(
            f"service failed to start: {failure[0]!r}") from failure[0]
    if not came_up or service.address is None:
        # The daemon never signalled readiness: don't proceed against a
        # half-started service — stop it, reap the thread, raise typed.
        service.request_stop()
        thread.join(timeout=10.0)
        raise ServiceStartupError(
            "service did not come up within 30s"
            + (" (startup thread still running)" if thread.is_alive() else "")
        )
    try:
        yield service
    finally:
        loop = loop_holder.get("loop")
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(service.request_stop)
        thread.join(timeout=60.0)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ServiceConfig",
    "ServiceStartupError",
    "SchedulerService",
    "run_service",
    "running_service",
]
