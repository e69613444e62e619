"""Admission control and the bounded priority job queue.

Two failure modes are deliberately distinct:

- :class:`AdmissionError` — the request itself is unacceptable for this
  deployment (too many switches, a disallowed search method, an oversized
  simulation): retrying is pointless, the client must change the request.
- :class:`BackpressureError` — the request is fine but the service is at
  its pending-work bound right now: the client should back off and retry
  (the error carries a ``retry_after`` hint).

The queue is a bounded max-priority heap (higher ``priority`` first, FIFO
within a priority) exposed through asyncio; :meth:`JobQueue.get_batch`
is work-conserving — it waits for one job, then takes whatever is already
queued (up to ``max_batch``) and returns without arming a timer, so
batches form only from a real backlog.  A positive ``window`` is an
explicit hold that also collects arrivals for that many seconds.  Queue
depth is published as the ``service.queue.depth`` gauge on every
transition.

Under overload the queue *sheds*: when a higher-priority request
arrives at a full queue, the lowest-priority (youngest-within-priority)
queued job is evicted and failed with :class:`ShedError` — a third typed
failure mode alongside admission and backpressure, carrying its own
``retry_after`` hint — so important work displaces less important work
instead of being bounced (``service.queue.shed`` counter).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.service.protocol import SEARCH_METHODS, ScheduleRequest


class AdmissionError(Exception):
    """The request violates this deployment's admission policy."""


class BackpressureError(Exception):
    """The pending-work bound is reached; retry after ``retry_after`` s."""

    def __init__(self, message: str, *, retry_after: float = 0.5):
        super().__init__(message)
        self.retry_after = retry_after


class ShedError(BackpressureError):
    """This queued request was evicted to admit higher-priority work.

    Raised *into the shed job's future*, not at the submitter of the new
    job: under overload the queue keeps the most important work and the
    displaced client gets an explicit typed error (code ``"shed"``) with
    a ``retry_after`` hint — never silent loss.
    """

    code = "shed"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-request resource bounds checked before a job is queued.

    The defaults admit everything the paper's experiments produce
    (16/24-switch networks, small sweeps) with generous headroom while
    keeping a single request from monopolizing a shared worker.
    """

    max_switches: int = 256
    max_clusters: int = 64
    max_simulate_points: int = 16
    max_simulate_cycles: int = 200_000
    allowed_methods: Optional[frozenset] = None  # None = every registered

    def check(self, request: ScheduleRequest) -> None:
        """Raise :class:`AdmissionError` unless ``request`` is admissible."""
        topo = request.topology
        if topo.num_switches > self.max_switches:
            raise AdmissionError(
                f"topology has {topo.num_switches} switches, this service "
                f"admits at most {self.max_switches}"
            )
        if request.workload.num_clusters > self.max_clusters:
            raise AdmissionError(
                f"workload has {request.workload.num_clusters} clusters, "
                f"this service admits at most {self.max_clusters}"
            )
        allowed = (self.allowed_methods if self.allowed_methods is not None
                   else frozenset(SEARCH_METHODS))
        if request.method not in allowed:
            raise AdmissionError(
                f"search method {request.method!r} is not admitted here; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        sim = request.simulate
        if sim is not None:
            if sim.points > self.max_simulate_points:
                raise AdmissionError(
                    f"simulate.points={sim.points} exceeds the admitted "
                    f"maximum of {self.max_simulate_points}"
                )
            cycles = (sim.warmup + sim.measure) * sim.points
            if cycles > self.max_simulate_cycles:
                raise AdmissionError(
                    f"simulation of {cycles} total cycles exceeds the "
                    f"admitted maximum of {self.max_simulate_cycles}"
                )


@dataclass
class Job:
    """One queued request plus the future its submitters await."""

    request: ScheduleRequest
    payload: Dict[str, Any]          # the wire dict (what workers execute)
    fingerprint: str
    future: "asyncio.Future" = field(repr=False)
    priority: int = 0
    # Resolves once the WAL accept record is durable; None without a WAL.
    accepted: Optional["asyncio.Future"] = field(default=None, repr=False)


class JobQueue:
    """Bounded max-priority queue feeding the dispatcher.

    A thin wrapper over :class:`asyncio.PriorityQueue` ordering by
    ``(-priority, arrival)`` — higher priority first, FIFO within a
    priority — that turns the full condition into a synchronous
    :class:`BackpressureError` (admission happens on the event loop; a
    blocking ``put`` would hide the overload from the client).
    """

    def __init__(self, max_pending: int = 64):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self._queue: "asyncio.PriorityQueue" = \
            asyncio.PriorityQueue(maxsize=self.max_pending)
        self._arrival = itertools.count()

    # -------------------------------------------------------------- #

    @property
    def depth(self) -> int:
        """Jobs currently waiting (excludes in-flight batches)."""
        return self._queue.qsize()

    def put_nowait(self, job: Job) -> Optional[Job]:
        """Enqueue ``job``; at capacity, shed strictly lower-priority work.

        At capacity the queue looks for a victim of *strictly lower*
        priority — the lowest-priority job, youngest within that
        priority — evicts it to make room, and returns it so the caller
        can fail its future with :class:`ShedError`.  When every queued
        job has priority >= the newcomer's, the newcomer is the loser and
        :class:`BackpressureError` is raised at the submitter.  Returns
        ``None`` when nothing was shed.
        """
        victim: Optional[Job] = None
        try:
            self._queue.put_nowait((-job.priority, next(self._arrival), job))
        except asyncio.QueueFull:
            victim = self._evict_lowest(job.priority)
            if victim is None:
                raise BackpressureError(
                    f"the service has {self.max_pending} requests pending; "
                    "retry later",
                ) from None
            _metrics.inc("service.queue.shed")
            self._queue.put_nowait((-job.priority, next(self._arrival), job))
        _metrics.set_gauge("service.queue.depth", self.depth)
        return victim

    def _evict_lowest(self, above_priority: int) -> Optional[Job]:
        """Remove the worst queued job strictly below ``above_priority``.

        "Worst" = lowest priority, then youngest arrival (the job that
        has waited least loses the tie).  Reaches into the underlying
        heap — sound because everything runs on the event loop, and the
        heap invariant is restored with ``heapify``.
        """
        heap = self._queue._queue  # list of (-priority, arrival, job)
        worst_index = None
        for index, (neg_priority, arrival, _) in enumerate(heap):
            if -neg_priority >= above_priority:
                continue
            if worst_index is None or (neg_priority, arrival) > (
                    heap[worst_index][0], heap[worst_index][1]):
                worst_index = index
        if worst_index is None:
            return None
        _, _, victim = heap.pop(worst_index)
        heapq.heapify(heap)
        # PriorityQueue tracks size through get(); mirror its accounting.
        self._queue._unfinished_tasks -= 1
        return victim

    async def get(self) -> Job:
        """Wait for and pop the highest-priority job."""
        _, _, job = await self._queue.get()
        _metrics.set_gauge("service.queue.depth", self.depth)
        return job

    async def get_batch(self, max_batch: int, window: float) -> List[Job]:
        """Pop one job plus whatever is already queued, up to ``max_batch``.

        The first pop waits indefinitely (an idle service parks here).
        Dispatch is work-conserving: with ``window<=0`` the batch is the
        backlog at that instant and no timer is armed, so a batch grows
        past one job only while the consumer was too busy to pop.  A
        positive ``window`` is an explicit hold: late arrivals within
        ``window`` seconds of the first pop ride along.
        """
        batch = [await self.get()]
        if window > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + window
            while len(batch) < max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(self.get(), remaining))
                except asyncio.TimeoutError:
                    break
        while len(batch) < max_batch:
            try:
                batch.append(self.get_nowait())
            except asyncio.QueueEmpty:
                break
        return batch

    def get_nowait(self) -> Job:
        """Pop the highest-priority job without waiting."""
        _, _, job = self._queue.get_nowait()
        _metrics.set_gauge("service.queue.depth", self.depth)
        return job

    def drain(self) -> List[Job]:
        """Remove and return every queued job (shutdown path)."""
        jobs = []
        while True:
            try:
                jobs.append(self.get_nowait())
            except asyncio.QueueEmpty:
                break
        return jobs


__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "BackpressureError",
    "Job",
    "JobQueue",
    "ShedError",
]
