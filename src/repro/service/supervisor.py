"""Supervision of the service's worker pool: restarts, deadlines, breaker.

The daemon's worker path used to be optimistic: submit a job to the
persistent :class:`~repro.parallel.WorkerPool` and await the future.  A
crashed worker broke every waiter, a hung worker wedged the dispatcher
slot forever, and a crash-looping pool burned CPU while clients timed
out.  :class:`PoolSupervisor` wraps the pool with the four disciplines a
self-healing service needs:

- **restart + re-dispatch** — a job whose worker dies mid-run
  (``BrokenProcessPool``) gets the damaged workers reaped, the pool
  restarted and the *orphaned job re-dispatched* on the fresh workers,
  with capped full-jitter backoff between attempts
  (:func:`repro.parallel.backoff_delay`) so concurrent jobs do not
  stampede a recovering pool;
- **deadlines** — every attempt is bounded by a wall-clock deadline; a
  hung worker trips :class:`DeadlineExceededError` (typed, mapped to an
  error reply) and the pool is restarted so the hung process is reaped
  instead of pinning a worker slot;
- **circuit breaker** — consecutive worker-path failures flip
  :class:`CircuitBreaker` open; while open the daemon *rejects* new work
  with a ``retry_after`` hint (degraded mode) instead of queueing doomed
  jobs, then re-probes after a cooldown (half-open) and closes again
  on the first success;
- **heartbeat** — an *idle* pool is probed every ``heartbeat_interval``
  seconds with a trivial round-trip job; a missed heartbeat restarts the
  pool before real work arrives.  A busy pool is never probed: in-flight
  jobs are their own health signal (they either complete or trip their
  deadline), and a probe queued behind a long job would false-positive.

Everything is observable: ``service.supervisor.{restarts,redispatches,
deadline_trips,heartbeats,heartbeat_misses,breaker_trips}`` counters on
the active registry (the daemon's; the supervisor keeps no tallies of
its own) plus ``service.supervisor.*`` trace events.

The sandbox thread-fallback contract of the pre-supervisor server is
preserved: when the platform cannot create a process pool at all, work
transparently runs on a thread (same results by purity of the executed
function; a *hung* thread job still trips the deadline but cannot be
reaped — documented, and only reachable where ``fork`` is forbidden).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from concurrent.futures.process import BrokenProcessPool

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.parallel import WorkerPool, backoff_delay


class SupervisorError(Exception):
    """Base of the supervisor's typed failures (all map to error replies).

    Every subclass carries a stable ``code`` — the error envelope's
    ``error.code`` — so clients can implement policy without string
    matching.
    """

    code = "failed"


class DeadlineExceededError(SupervisorError, TimeoutError):
    """The job exceeded its wall-clock deadline (worker hang/slowdown)."""

    code = "deadline"


class WorkerCrashError(SupervisorError, RuntimeError):
    """Workers kept dying across the re-dispatch budget."""

    code = "crashed"


class CircuitOpenError(SupervisorError, RuntimeError):
    """The worker path is degraded; retry after ``retry_after`` seconds."""

    code = "degraded"

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive worker-path failures open the
    breaker; after ``reset_timeout`` seconds it goes half-open and lets
    traffic probe the pool — one success closes it, one failure re-opens.
    """

    failure_threshold: int = 5
    reset_timeout: float = 2.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {self.reset_timeout}"
            )


class CircuitBreaker:
    """Closed → open → half-open state machine over consecutive failures.

    Thread-compatible by construction: all mutation happens on the
    daemon's event loop.  The ``clock`` is injectable so tests step time
    instead of sleeping.
    """

    def __init__(self, config: Optional[BreakerConfig] = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` right now."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.config.reset_timeout:
            return "half_open"
        return "open"

    def reject_after(self) -> Optional[float]:
        """Seconds to wait before retrying, or ``None`` when admitting.

        Non-consuming: the admission path calls this to decide whether to
        reject with ``retry_after``; half-open traffic is admitted so the
        pool gets its probe.
        """
        if self.state != "open":
            return None
        elapsed = self._clock() - self._opened_at
        return max(0.05, self.config.reset_timeout - elapsed)

    def record_success(self) -> None:
        """A worker-path success: close the breaker, reset the count."""
        if self._opened_at is not None:
            _trace.event("service.supervisor.breaker_closed")
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        """A worker-path failure: count it; trip open at the threshold.

        A failure while half-open re-opens immediately (the probe failed).
        """
        self._failures += 1
        was_open = self._opened_at is not None
        if was_open or self._failures >= self.config.failure_threshold:
            if not was_open:
                _metrics.inc("service.supervisor.breaker_trips")
                _trace.event("service.supervisor.breaker_opened",
                             failures=self._failures)
            self._opened_at = self._clock()

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (state, consecutive failures)."""
        return {
            "state": self.state,
            "consecutive_failures": self._failures,
        }


def _heartbeat_probe(token: int) -> int:
    """The trivial round-trip job the heartbeat submits (picklable)."""
    return token


class PoolSupervisor:
    """Run pool jobs under restart/re-dispatch, deadline and breaker rules.

    Owns the resilience policy, not the pool itself: the caller creates
    (and finally closes) the :class:`~repro.parallel.WorkerPool`; the
    supervisor restarts it when workers crash, hang or miss heartbeats.

    ``run(fn, *args)`` is the whole API for callers: it resolves to the
    job's result or raises one of the typed :class:`SupervisorError`
    subclasses — never a raw ``BrokenProcessPool`` and never a hang.
    """

    def __init__(self, pool: WorkerPool, *,
                 deadline: Optional[float] = None,
                 max_redispatch: int = 2,
                 breaker: Optional[CircuitBreaker] = None,
                 heartbeat_interval: Optional[float] = None,
                 heartbeat_timeout: float = 10.0,
                 backoff_cap: float = 0.5,
                 rng: Optional[random.Random] = None):
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        if max_redispatch < 0:
            raise ValueError(
                f"max_redispatch must be >= 0, got {max_redispatch}"
            )
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.pool = pool
        self.deadline = deadline
        self.max_redispatch = max_redispatch
        self.breaker = breaker or CircuitBreaker()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._backoff_cap = backoff_cap
        self._rng = rng or random.Random()
        self._use_threads = False
        self._inflight = 0
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._heartbeat_seq = 0

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start(self) -> None:
        """Start the heartbeat task (no-op without an interval)."""
        if self.heartbeat_interval is not None \
                and self._heartbeat_task is None:
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def stop(self) -> None:
        """Cancel the heartbeat task (the pool is the caller's to close)."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):
                pass
            self._heartbeat_task = None

    # -------------------------------------------------------------- #
    # supervised execution
    # -------------------------------------------------------------- #

    async def run(self, fn: Callable, /, *args) -> Any:
        """Execute ``fn(*args)`` on the pool under the supervision rules.

        Raises :class:`CircuitOpenError` when the breaker is open,
        :class:`DeadlineExceededError` on a hung/slow attempt (the pool is
        restarted so the hung worker is reaped), and
        :class:`WorkerCrashError` once the re-dispatch budget is spent on
        a crash-looping pool.  Any other exception is the job's own and
        propagates unchanged (the pool stays healthy).
        """
        retry_after = self.breaker.reject_after()
        if retry_after is not None:
            raise CircuitOpenError(
                "the worker path is degraded (circuit open); retry later",
                retry_after=retry_after,
            )
        attempt = 0
        self._inflight += 1
        try:
            while True:
                try:
                    result = await self._attempt(fn, args, self.deadline)
                except asyncio.TimeoutError:
                    _metrics.inc("service.supervisor.deadline_trips")
                    _trace.event("service.supervisor.deadline",
                                 deadline_seconds=self.deadline)
                    await self._restart("deadline")
                    self.breaker.record_failure()
                    raise DeadlineExceededError(
                        f"job exceeded its {self.deadline}s deadline; "
                        "the worker was restarted"
                    ) from None
                except BrokenProcessPool as exc:
                    await self._restart("crash")
                    self.breaker.record_failure()
                    if attempt >= self.max_redispatch:
                        raise WorkerCrashError(
                            f"workers died {attempt + 1} times running this "
                            "job; giving up"
                        ) from exc
                    attempt += 1
                    _metrics.inc("service.supervisor.redispatches")
                    _trace.event("service.supervisor.redispatch",
                                 attempt=attempt, error=repr(exc))
                    await asyncio.sleep(backoff_delay(
                        attempt, cap=self._backoff_cap, rng=self._rng))
                    continue
                else:
                    self.breaker.record_success()
                    return result
        finally:
            self._inflight -= 1

    async def _attempt(self, fn: Callable, args: tuple,
                       deadline: Optional[float]) -> Any:
        """One execution attempt: pool submit (or thread fallback) + wait."""
        loop = asyncio.get_running_loop()
        if self._use_threads:
            return await asyncio.wait_for(
                loop.run_in_executor(None, fn, *args), deadline)
        try:
            future = self.pool.submit(fn, *args)
        except BrokenProcessPool:
            raise                      # crash path: restart + re-dispatch
        except (OSError, RuntimeError) as exc:
            # The pool cannot be (re)created at all — a sandbox that
            # forbids fork will not learn to overnight.  Settle on
            # threads for good (same results by purity; no isolation).
            self._use_threads = True
            _trace.event("service.pool.thread_fallback", error=repr(exc))
            return await asyncio.wait_for(
                loop.run_in_executor(None, fn, *args), deadline)
        return await asyncio.wait_for(asyncio.wrap_future(future), deadline)

    async def _restart(self, reason: str) -> None:
        """Kill + reap the current workers off-loop; next use gets fresh."""
        _metrics.inc("service.supervisor.restarts")
        _trace.event("service.supervisor.restart", reason=reason)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.restart)

    # -------------------------------------------------------------- #
    # heartbeat
    # -------------------------------------------------------------- #

    async def _heartbeat_loop(self) -> None:
        """Probe the *idle* pool every interval; restart on a miss."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            if self._inflight > 0 or self._use_threads:
                continue   # busy pools prove themselves; threads can't die
            if not self.pool.active:
                continue   # no workers to probe (nothing has run yet)
            self._heartbeat_seq += 1
            token = self._heartbeat_seq
            try:
                echoed = await self._attempt(
                    _heartbeat_probe, (token,), self.heartbeat_timeout)
                ok = echoed == token
            except asyncio.CancelledError:
                raise
            except Exception:
                ok = False
            if ok:
                _metrics.inc("service.supervisor.heartbeats")
            else:
                _metrics.inc("service.supervisor.heartbeat_misses")
                _trace.event("service.supervisor.heartbeat_missed",
                             seq=token)
                await self._restart("heartbeat")

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def thread_fallback(self) -> bool:
        """Whether execution settled on threads (no process pool)."""
        return self._use_threads

    @property
    def inflight(self) -> int:
        """Supervised jobs currently executing."""
        return self._inflight

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: breaker state, deadline, live jobs."""
        return {
            "breaker": self.breaker.status(),
            "deadline_seconds": self.deadline,
            "heartbeat_interval": self.heartbeat_interval,
            "inflight": self._inflight,
            "thread_fallback": self._use_threads,
        }


__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "PoolSupervisor",
    "SupervisorError",
    "WorkerCrashError",
]
