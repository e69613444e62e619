"""The resident scheduling daemon: asyncio front-end over a worker pool.

Request lifecycle::

    client ──line-JSON──▶ connection handler
        │ store hit?  ──────────────▶ reply (served from "store")
        │ identical request in flight? ─▶ await its future ("inflight")
        │ admission check ──────────▶ reject ("rejected")
        │ queue.put_nowait ─────────▶ reject ("backpressure") when full
        ▼
    dispatcher (once a slot is free: first job + whatever is already
    queued, groups by topology fingerprint, folds duplicates)
        ▼
    persistent WorkerPool ── execute_batch ──▶ canonical response dicts
        ▼
    result store (TTL) + every waiter's future resolved

The whole pipeline is instrumented through :mod:`repro.obs`
(``service.queue.depth`` gauge, ``service.batch.size`` histogram,
``service.request`` spans) and keeps answering for faulted topologies via
degraded-mode scheduling (see :mod:`repro.service.batch`).

Determinism: the computed payload for a request is byte-identical whether
it is served solo, coalesced into a batch, or replayed from the store —
the serving path only shows up in the reply envelope's ``served`` field.

Sandbox resilience: when the platform cannot run a process pool at all
(``fork`` forbidden), execution transparently falls back to a thread —
same results by purity of :func:`execute_batch`, just no process
isolation.

Self-healing (PR 7): the worker path runs under a
:class:`~repro.service.supervisor.PoolSupervisor` — per-batch deadlines,
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
from repro.parallel import WorkerPool, WorkersLike
from repro.service.batch import BatchGroup, execute_batch, plan_batches
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


class ServiceStartupError(RuntimeError):
    """The daemon failed to come up (bind failure, startup hang, …)."""


def _default_executor(seq: int,
                      payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The production batch executor: :func:`execute_batch`, seq ignored.

    The ``seq`` argument is the daemon's monotonically increasing batch
    sequence number; the default executor ignores it, the chaos harness's
    :class:`~repro.chaos.inject.ChaoticExecutor` keys its deterministic
    fault plan on it.  Must stay a top-level function — it crosses the
    process-pool pickle boundary.
    """
    return execute_batch(payloads)


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
    max_batch: int = 16
    batch_window: float = 0.0         # explicit hold (s); 0 = work-conserving
    store_ttl: Optional[float] = 300.0
    store_size: int = 1024
    max_inflight_batches: Optional[int] = None   # None → 2 × workers
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    # --- self-healing knobs (PR 7) ---------------------------------- #
    request_deadline: Optional[float] = None   # s per batch attempt; None=off
    max_redispatch: int = 2           # crash re-dispatch budget per batch
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    heartbeat_interval: Optional[float] = None  # s between idle probes
    heartbeat_timeout: float = 10.0
    wal_path: Optional[Union[str, Path]] = None  # accepted-request journal
    # --- operator console (PR 9) ------------------------------------ #
    console_port: Optional[int] = None  # HTTP console; None=off, 0=ephemeral
    executor: Callable[[int, List[Dict[str, Any]]],
                       List[Dict[str, Any]]] = _default_executor


class SchedulerService:
    """The daemon: queue + batcher + persistent pool + store, one loop."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = ResultStore(ttl=self.config.store_ttl,
                                 max_entries=self.config.store_size)
        self.pool = WorkerPool(self.config.workers)
        self.queue: Optional[JobQueue] = None       # built on the loop
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._group_tasks: set = set()
        self._inflight: Dict[str, Job] = {}
        self._stop_event: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self.supervisor = PoolSupervisor(
            self.pool,
            deadline=self.config.request_deadline,
            max_redispatch=self.config.max_redispatch,
            breaker=CircuitBreaker(self.config.breaker),
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_timeout=self.config.heartbeat_timeout,
        )
        self.wal: Optional[WriteAheadLog] = None     # opened on start()
        self.console = None                          # ConsoleServer on start()
        self._batch_seq = 0
        self._counters: Dict[str, int] = {
            "requests": 0,
            "served_computed": 0, "served_store": 0, "served_inflight": 0,
            "rejected_backpressure": 0, "rejected_admission": 0,
            "rejected_protocol": 0, "failed": 0,
            "rejected_shed": 0, "rejected_degraded": 0, "deadline": 0,
            "replayed": 0,
            "batches": 0, "batched_requests": 0, "max_batch": 0,
        }

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start(self) -> Tuple[str, int]:
        """Bind the socket, start the dispatcher; returns (host, port)."""
        self.queue = JobQueue(self.config.max_pending)
        self._stop_event = asyncio.Event()
        # Bound the batches handed to the pool at once: when every slot is
        # taken the dispatcher stops popping, the queue fills, and clients
        # see backpressure — instead of unbounded fan-out hiding overload
        # inside the executor's own queue.
        slots = self.config.max_inflight_batches
        if slots is None:
            slots = max(2, 2 * self.pool.workers)
        self._group_sem = asyncio.Semaphore(max(1, slots))
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
            job = Job(request=request, payload=request.to_dict(),
                      fingerprint=fingerprint, future=future,
                      priority=item["priority"])
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
        self._counters["replayed"] = replayed
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
        """Stop accepting, fail queued work, close the pool (reaping it)."""
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
        for task in list(self._group_tasks):
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
        # Pool close waits for in-flight jobs; do it off-loop so a long
        # job cannot wedge the shutdown path.
        await asyncio.get_running_loop().run_in_executor(None, self.pool.close)
        if self.wal is not None:
            # Queued-but-unreplied requests stay journaled: the next
            # incarnation replays them.  Close drains and fsyncs.
            await asyncio.get_running_loop().run_in_executor(
                None, self.wal.close)
        _trace.event("service.stopped")

    # -------------------------------------------------------------- #
    # dispatcher: queue → batches → pool
    # -------------------------------------------------------------- #

    async def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            await self._group_sem.acquire()   # capacity before popping work
            try:
                jobs = await self.queue.get_batch(cfg.max_batch,
                                                  cfg.batch_window)
            except BaseException:
                self._group_sem.release()
                raise
            groups = plan_batches(jobs)
            for i, group in enumerate(groups):
                if i > 0:                      # first group uses the held slot
                    await self._group_sem.acquire()
                task = asyncio.create_task(self._run_group(group))
                self._group_tasks.add(task)
                task.add_done_callback(self._on_group_done)
            if not groups:                     # pragma: no cover - defensive
                self._group_sem.release()

    def _on_group_done(self, task: "asyncio.Task") -> None:
        self._group_tasks.discard(task)
        self._group_sem.release()

    async def _run_group(self, group: BatchGroup) -> None:
        payloads = group.payloads()
        self._counters["batches"] += 1
        self._counters["batched_requests"] += group.total
        self._counters["max_batch"] = max(self._counters["max_batch"],
                                          group.total)
        _metrics.observe("service.batch.size", group.total)
        _metrics.observe("service.batch.unique", group.unique)
        served = {"from": "computed", "batch_size": group.total,
                  "unique": group.unique}
        try:
            results = await self._execute(payloads)
        except Exception as exc:
            self._counters["failed"] += group.total
            for entry in group.entries:
                # The client gets an explicit typed error — the request
                # is settled, so the journal entry is too.
                self._wal_done(entry[0].fingerprint)
                for job in entry:
                    if not job.future.done():
                        job.future.set_exception(exc)
            return
        for entry, result in zip(group.entries, results):
            self.store.put(entry[0].fingerprint, result)
            self._wal_done(entry[0].fingerprint)
            for job in entry:
                if not job.future.done():
                    job.future.set_result((result, served))

    def _wal_done(self, fingerprint: str) -> None:
        """Settle a journal entry once its request has a definite outcome."""
        if self.wal is not None:
            self.wal.append_done(fingerprint)

    async def _execute(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one batch under supervision (deadline, restart, re-dispatch).

        Delegates the resilience policy — per-attempt deadline, restart +
        re-dispatch on worker crashes, circuit-breaker accounting and the
        sandbox thread fallback — to the :class:`PoolSupervisor`; failures
        surface as its typed errors and are mapped to typed error replies.
        """
        self._batch_seq += 1
        return await self.supervisor.run(
            self.config.executor, self._batch_seq, payloads)

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
                    self._counters["rejected_protocol"] += 1
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
                    self._counters["rejected_protocol"] += 1
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
            self._counters["rejected_protocol"] += 1
            return error_envelope("bad-request", str(exc))
        wait = message.get("wait", True)
        if not isinstance(wait, bool):
            return error_envelope("bad-request", "'wait' must be a boolean")
        fingerprint = request.fingerprint()
        self._counters["requests"] += 1
        with _trace.span("service.request", fingerprint=fingerprint[:12],
                         method=request.method) as sp:
            stored = self.store.get(fingerprint)
            if stored is not None:
                self._counters["served_store"] += 1
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
                self._counters["rejected_admission"] += 1
                sp.set(served="rejected")
                return error_envelope("rejected", str(exc))
            retry_after = self.supervisor.breaker.reject_after()
            if retry_after is not None:
                # Degraded mode: the worker path is crash-looping; reject
                # new work with a hint instead of queueing doomed batches.
                self._counters["rejected_degraded"] += 1
                sp.set(served="degraded")
                return error_envelope(
                    "degraded",
                    "the service is degraded (worker path failing); "
                    "retry later",
                    retry_after=round(retry_after, 3))
            future = asyncio.get_running_loop().create_future()
            job = Job(request=request, payload=request.to_dict(),
                      fingerprint=fingerprint, future=future,
                      priority=request.priority)
            try:
                victim = self.queue.put_nowait(job)
            except BackpressureError as exc:
                self._counters["rejected_backpressure"] += 1
                sp.set(served="backpressure")
                return error_envelope("backpressure", str(exc),
                                      retry_after=exc.retry_after)
            if victim is not None:
                # A lower-priority queued job made room: fail it with a
                # typed shed error (its waiters get retry_after) and
                # settle its journal entry — an explicit outcome, not
                # silent loss.
                self._counters["rejected_shed"] += 1
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
        """Map an exception to a typed error envelope (+ counters)."""
        code = getattr(exc, "code", None) or "failed"
        extra: Dict[str, Any] = {}
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            extra["retry_after"] = round(float(retry_after), 3)
        if code == "shed":
            pass          # counted at shed time, not per waiter
        elif code == "degraded":
            self._counters["rejected_degraded"] += 1
        elif code == "deadline":
            self._counters["deadline"] += 1
        else:
            self._counters["failed"] += 1
        message = str(exc) or type(exc).__name__
        if code == "failed":
            message = f"{type(exc).__name__}: {exc}"
        return error_envelope(code, message, **extra)

    async def _await_future(self, future: "asyncio.Future",
                            source: str) -> Dict[str, Any]:
        try:
            result, served = await asyncio.wait_for(
                asyncio.shield(future), self._reply_timeout())
        except asyncio.TimeoutError:
            self._counters["deadline"] += 1
            return error_envelope(
                "deadline",
                "no result within the service's reply bound; the request "
                "was dropped")
        except Exception as exc:
            return self._error_reply(exc)
        if source == "inflight":
            self._counters["served_inflight"] += 1
            served = {**served, "from": "inflight"}
        else:
            self._counters["served_computed"] += 1
        return ok_envelope(result=result, served=served)

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
        """A deterministic-schema snapshot for the ``status`` op."""
        from repro import __version__

        c = self._counters
        store_stats = self.store.stats()
        batches = c["batches"]
        return ServiceStatus(
            version=__version__,
            uptime_seconds=round(time.monotonic() - self._started_at, 3),
            requests_total=c["requests"],
            served={
                "computed": c["served_computed"],
                "store": c["served_store"],
                "inflight": c["served_inflight"],
            },
            rejected={
                "backpressure": c["rejected_backpressure"],
                "admission": c["rejected_admission"],
                "protocol": c["rejected_protocol"],
                "failed": c["failed"],
                "shed": c["rejected_shed"],
                "degraded": c["rejected_degraded"],
                "deadline": c["deadline"],
            },
            queue_depth=self.queue.depth if self.queue is not None else 0,
            queue_capacity=self.config.max_pending,
            inflight=len(self._inflight),
            store={
                "size": store_stats.size,
                "hits": store_stats.hits,
                "misses": store_stats.misses,
                "evictions": store_stats.evictions,
                "expirations": store_stats.expirations,
                "corruptions": store_stats.corruptions,
            },
            pool={
                "workers": self.pool.workers,
                "active": self.pool.active,
                "thread_fallback": self.supervisor.thread_fallback,
            },
            batches={
                "count": batches,
                "requests": c["batched_requests"],
                "mean_size": (round(c["batched_requests"] / batches, 3)
                              if batches else None),
                "max_size": c["max_batch"],
            },
            supervisor=self.supervisor.status(),
            wal=(self.wal.status() if self.wal is not None else None),
            console=(
                {"host": self.console.address[0],
                 "port": self.console.address[1],
                 "requests": self.console.requests_served}
                if self.console is not None
                and self.console.address is not None else None
            ),
        )

    def _console_metrics(self) -> str:
        """The ``/metrics`` body: the status snapshot as Prometheus text.

        Built from the same counters the ``status`` op reports, merged
        with the context's live :class:`MetricsRegistry` when one is
        active (e.g. the daemon runs under ``--trace``).
        """
        from repro.obs.export import render_prometheus
        from repro.obs.metrics import current_registry

        snapshot = status_metrics_snapshot(self.status().to_dict())
        registry = current_registry()
        if registry is not None:
            live = registry.snapshot()
            snapshot["counters"].update(live.get("counters", {}))
            snapshot["gauges"].update(live.get("gauges", {}))
            snapshot["histograms"] = live.get("histograms", {})
        return render_prometheus(snapshot)


# --------------------------------------------------------------------- #
# status -> metrics mapping
# --------------------------------------------------------------------- #

def status_metrics_snapshot(status: Dict[str, Any]) -> Dict[str, Any]:
    """A ``status`` dict as a registry-snapshot shape for the exporter.

    Monotone totals (requests, served/rejected reasons, store traffic,
    batches) become counters; instantaneous readings (queue depth,
    inflight, pool occupancy, uptime) become gauges.  Keys are dotted
    instrument names; :func:`repro.obs.export.render_prometheus` turns
    them into legal exposition names.
    """
    counters: Dict[str, float] = {
        "service.requests": status.get("requests_total", 0),
    }
    for reason, value in status.get("served", {}).items():
        counters[f"service.served.{reason}"] = value
    for reason, value in status.get("rejected", {}).items():
        counters[f"service.rejected.{reason}"] = value
    store = status.get("store", {})
    for kind in ("hits", "misses", "evictions", "expirations",
                 "corruptions"):
        counters[f"service.store.{kind}"] = store.get(kind, 0)
    batches = status.get("batches", {})
    counters["service.batches"] = batches.get("count", 0)
    counters["service.batched_requests"] = batches.get("requests", 0)
    console = status.get("console") or {}
    if console:
        counters["service.console.requests"] = console.get("requests", 0)
    gauges: Dict[str, float] = {
        "service.uptime_seconds": status.get("uptime_seconds", 0.0),
        "service.queue_depth": status.get("queue_depth", 0),
        "service.queue_capacity": status.get("queue_capacity", 0),
        "service.inflight": status.get("inflight", 0),
        "service.store.size": store.get("size", 0),
    }
    pool = status.get("pool", {})
    gauges["service.pool.workers"] = pool.get("workers", 0)
    gauges["service.pool.active"] = pool.get("active", 0)
    return {"counters": counters, "gauges": gauges, "histograms": {}}


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

    On exit the daemon is stopped and its pool closed (or reaped, if the
    body raised a ``KeyboardInterrupt``-class exception).
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

    thread = threading.Thread(target=lambda: asyncio.run(_main()),
                              name="repro-service", daemon=True)
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
    "status_metrics_snapshot",
    "run_service",
    "running_service",
]
