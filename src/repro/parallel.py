"""Resilient process-pool execution with a deterministic serial fallback.

Every parallel code path in this library follows one contract: the work is
split into independent jobs *before* execution, each job carries its own
pre-derived RNG stream (see :func:`repro.util.rng.spawn_rngs` /
:func:`repro.util.rng.derive_seed`), and results are merged in job order.
Whether the jobs run in this process (serial fallback) or in a process pool
is therefore unobservable in the results: parallel runs are bit-identical
to serial ones.  ``tests/search/test_parallel_determinism.py`` locks this
down per search method.

On top of the deterministic core, :func:`parallel_map` keeps long sweeps
going:

- **partial-result recovery** — when the pool cannot start or dies
  mid-run (``BrokenProcessPool``, sandboxes that forbid ``fork``), results
  that already completed are kept and only the missing jobs re-run
  serially;
- **checkpoint/resume** — ``checkpoint=SweepCheckpoint(...)`` records each
  completed job durably and, on a later run, skips every job already on
  disk, so an interrupted sweep resumes bit-identically
  (:mod:`repro.checkpoint`).

Each :func:`parallel_map` call owns its pool and disposes of it before
returning; when a job raises or the caller is interrupted
(``KeyboardInterrupt``), the workers are terminated and reaped instead of
being orphaned mid-job.  :class:`WorkerPool` wraps the
:class:`~concurrent.futures.ProcessPoolExecutor`; the resident scheduling
service (:mod:`repro.service`) keeps one open across requests so its
workers, and their process-local distance-table caches, stay warm.

Worker-count resolution, in precedence order:

1. an explicit ``workers`` argument (``int``, ``0``/``"auto"`` for
   auto-detection);
2. the ``REPRO_WORKERS`` environment variable (same forms);
3. the default: ``1`` — serial, so importing the library never spawns
   processes unless asked to.
"""

from __future__ import annotations

import os
import random
import threading
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, TypeVar, Union

from repro.checkpoint import SweepCheckpoint
from repro.obs import trace as _trace

T = TypeVar("T")
R = TypeVar("R")

#: Accepted forms of a worker count: ``None`` (env/default), a positive
#: ``int``, ``0`` (auto-detect) or the string ``"auto"``.
WorkersLike = Union[None, int, str]

WORKERS_ENV = "REPRO_WORKERS"

#: Backoff schedule for the service's retries (the client's reconnects in
#: :mod:`repro.service.client`, the supervisor's job re-dispatches in
#: :mod:`repro.service.supervisor`): attempt ``k`` sleeps a *full-jitter*
#: delay drawn uniformly from ``[0, min(BACKOFF_CAP, BACKOFF_BASE * 2**k)]``
#: seconds before re-running.  The jitter decorrelates concurrent clients
#: and jobs retrying against the same recovering pool or service, so a
#: synchronized failure does not turn into a synchronized retry stampede;
#: the hard cap bounds the worst-case wait no matter how large ``attempt``
#: grows.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

# Process-wide jitter source.  Backoff delays never influence results
# (only when work re-runs, not what it computes), so this RNG is
# deliberately unseeded; tests pass an explicit ``rng`` for determinism.
_backoff_rng = random.Random()

_PENDING = object()


def detect_workers() -> int:
    """CPUs available to *this* process (affinity-aware), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: WorkersLike = None) -> int:
    """Turn a ``workers`` spec into a concrete positive worker count.

    ``None`` defers to ``$REPRO_WORKERS`` (default ``1`` = serial);
    ``0`` or ``"auto"`` auto-detect the available CPUs.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        workers = env
    if isinstance(workers, str):
        spec = workers.strip().lower()
        if spec == "auto":
            return detect_workers()
        try:
            workers = int(spec)
        except ValueError:
            raise ValueError(
                f"workers must be an int or 'auto', got {workers!r}"
            ) from None
    workers = int(workers)
    if workers == 0:
        return detect_workers()
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return workers


def backoff_delay(attempt: int, *, base: float = BACKOFF_BASE,
                  cap: float = BACKOFF_CAP,
                  rng: Optional[random.Random] = None) -> float:
    """Full-jitter capped exponential backoff delay for retry ``attempt``.

    Returns a delay drawn uniformly from ``[0, min(cap, base * 2**attempt)]``
    seconds (the AWS "full jitter" scheme).  The uniform draw decorrelates
    retry storms — two clients that failed at the same instant retry at
    different instants — and the hard ``cap`` bounds the ceiling for any
    attempt count (``2.0 ** attempt`` saturating to ``inf`` is fine: the
    ``min`` keeps the ceiling at ``cap``).

    ``rng`` defaults to a process-wide unseeded generator; pass an explicit
    :class:`random.Random` to make delays reproducible (the scheduling
    *results* never depend on them either way).
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if base < 0 or cap < 0:
        raise ValueError(f"base and cap must be >= 0, got {base}/{cap}")
    ceiling = min(cap, base * (2.0 ** attempt))
    return (rng or _backoff_rng).uniform(0.0, ceiling)


def _reap(executor: Optional[ProcessPoolExecutor]) -> None:
    """Shut an executor down, kill its live workers and wait for them.

    Live workers receive ``SIGTERM``, so a hung or interrupted job cannot
    keep the process tree alive; the workers are joined (reaped) before
    returning.
    """
    if executor is None:
        return
    procs = list(getattr(executor, "_processes", {}).values())
    manager = getattr(executor, "_executor_manager_thread", None)
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5.0)
    # The executor's manager thread joins the same processes.  A worker it
    # reaped first reads as alive here until that join stores the exit code.
    if manager is not None and manager is not threading.current_thread():
        manager.join(timeout=5.0)


class WorkerPool:
    """A persistent, context-managed process pool.

    The executor is created lazily on first :meth:`submit` (so merely
    constructing a pool never spawns processes) and reused until
    :meth:`close` or :meth:`terminate`.  Exiting the ``with`` block on an
    exception that is *not* an ordinary ``Exception`` — notably
    ``KeyboardInterrupt`` — terminates the workers so they are reaped
    instead of leaking; a clean exit waits for in-flight jobs.

    :func:`parallel_map` runs each call on a pool of its own; the resident
    scheduling service (:mod:`repro.service`) keeps one open across
    requests, so each worker process — and its process-local
    distance/routing-table caches — stays warm.
    """

    def __init__(self, workers: WorkersLike = None):
        self.workers = resolve_workers(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False

    # -------------------------------------------------------------- #

    @property
    def active(self) -> bool:
        """Whether an executor currently exists (workers may be live)."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """Whether the pool was closed/terminated for good."""
        return self._closed

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on demand.

        Raises ``RuntimeError`` on a closed pool and propagates ``OSError``
        when the platform cannot create a process pool at all (callers
        fall back to serial or thread execution).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_worker_init
                )
            return self._executor

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
        """Submit one job to the pool (creating it if needed)."""
        return self.executor().submit(fn, *args, **kwargs)

    # -------------------------------------------------------------- #

    def restart(self) -> None:
        """Terminate the current workers; the next use gets a fresh pool.

        The resilience path for a resident pool: after a hung job or a
        broken executor, discard the damaged workers (killing them so
        they are reaped) without closing the pool for good.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        _reap(executor)

    def close(self) -> None:
        """Wait for in-flight jobs, then shut the workers down."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)

    def terminate(self) -> None:
        """Cancel pending jobs, kill live workers and reap them."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        _reap(executor)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # KeyboardInterrupt / SystemExit / GeneratorExit: the caller is
        # being torn down — kill and reap rather than wait on stragglers.
        if exc_type is not None and not issubclass(exc_type, Exception):
            self.terminate()
        else:
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "active" if self.active else "idle"
        )
        return f"WorkerPool(workers={self.workers}, {state})"


def _record(checkpoint: Optional[SweepCheckpoint], index: int,
            value: object) -> None:
    if checkpoint is not None:
        checkpoint.record(index, value)


def _run_serial(fn: Callable[[T], R], job_list: List[T], results: List,
                missing: List[int],
                checkpoint: Optional[SweepCheckpoint]) -> None:
    """Run ``missing`` jobs in order in this process.

    Each job's lifecycle is reported as structured telemetry events
    (``parallel.job.started`` / ``.completed``) — no-ops when no tracer
    is active.  A job's exception propagates unchanged.
    """
    for i in missing:
        _trace.event("parallel.job.started", job=i, mode="serial")
        results[i] = fn(job_list[i])
        _trace.event("parallel.job.completed", job=i, mode="serial")
        _record(checkpoint, i, results[i])


def _run_pool(pool: ProcessPoolExecutor, fn: Callable[[T], R],
              job_list: List[T], results: List, missing: List[int],
              checkpoint: Optional[SweepCheckpoint]) -> None:
    """Run ``missing`` jobs on ``pool``, collecting results in job order.

    Raises ``BrokenProcessPool`` upward (the caller falls back serially)
    or the exception of the first job, in job order, that failed.  An
    ``OSError`` from ``submit`` (a worker could not be spawned) counts as
    a broken pool; the same error raised by a job does not.
    """
    try:
        futures = {i: pool.submit(fn, job_list[i]) for i in missing}
    except OSError as exc:
        raise BrokenProcessPool(f"cannot start a worker: {exc!r}") from exc
    for i in missing:
        _trace.event("parallel.job.scheduled", job=i, mode="pool")
    for i in missing:
        results[i] = futures[i].result()
        _trace.event("parallel.job.completed", job=i, mode="pool")
        _record(checkpoint, i, results[i])


def parallel_map(
    fn: Callable[[T], R],
    jobs: Iterable[T],
    *,
    workers: WorkersLike = None,
    checkpoint: Optional[SweepCheckpoint] = None,
) -> List[R]:
    """Map ``fn`` over ``jobs``, preserving job order in the results.

    With a resolved worker count of 1 (the default) this is a plain serial
    loop.  With more workers the jobs run in a process pool owned by this
    call; ``fn`` and every job must be picklable (top-level functions with
    value-like arguments).  Results come back in submission order either
    way, so callers can merge deterministically, and an exception raised
    by ``fn`` propagates unchanged in both modes.

    ``checkpoint`` — a :class:`~repro.checkpoint.SweepCheckpoint` — records
    completed jobs durably and skips them on re-runs, so an interrupted
    map resumes where it left off with identical results.

    If the pool itself cannot be created or dies (sandboxes that forbid
    ``fork``, resource exhaustion, a crashing worker), results that
    already completed are kept and only the unfinished jobs re-run on the
    serial path — the results are identical by contract, only slower.  A
    failing job or an abnormal exit (``KeyboardInterrupt``) terminates and
    reaps the workers instead of orphaning them mid-job.
    """
    job_list = list(jobs)
    n_jobs = len(job_list)
    results: List = [_PENDING] * n_jobs
    if checkpoint is not None:
        for i, value in checkpoint.completed(n_jobs).items():
            results[i] = value
        if checkpoint.total is None:
            checkpoint.total = n_jobs
    missing = [i for i in range(n_jobs) if results[i] is _PENDING]
    if checkpoint is not None and n_jobs > len(missing):
        _trace.event("checkpoint.resume", path=str(checkpoint.path),
                     completed=n_jobs - len(missing), total=n_jobs)
    if not missing:
        return results
    n = resolve_workers(workers)
    with _trace.span("parallel.map", jobs=n_jobs, pending=len(missing),
                     workers=n) as sp:
        if n <= 1 or len(missing) <= 1:
            sp.set(mode="serial")
            _run_serial(fn, job_list, results, missing, checkpoint)
            return results
        wp = WorkerPool(min(n, len(missing)))
        try:
            executor = wp.executor()
        except OSError as exc:
            sp.set(mode="serial-fallback")
            _warn_fallback(exc, len(missing), n_jobs)
            _run_serial(fn, job_list, results, missing, checkpoint)
            return results
        sp.set(mode="pool")
        try:
            _run_pool(executor, fn, job_list, results, missing, checkpoint)
        except BrokenProcessPool as exc:
            wp.terminate()
            still_missing = [i for i in range(n_jobs) if results[i] is _PENDING]
            sp.set(mode="pool-then-serial")
            _warn_fallback(exc, len(still_missing), n_jobs)
            _run_serial(fn, job_list, results, still_missing, checkpoint)
        except BaseException:
            # A job failed or the caller is being torn down: kill and reap
            # the workers (completed results are already checkpointed for
            # a later resume) so none outlive the call.
            wp.terminate()
            raise
        else:
            wp.close()
    return results


def _worker_init() -> None:
    """Detach telemetry in pool workers.

    Under the ``fork`` start method a worker inherits the parent's
    active tracer/registry contextvars — and through them the parent's
    open trace sink.  Telemetry for pooled work is emitted parent-side
    from the returned results, so workers drop the inherited context;
    this keeps the serial and pooled event streams identical and the
    trace file single-writer.
    """
    from repro.obs import metrics as _obs_metrics
    from repro.obs import trace as _obs_trace

    _obs_trace.deactivate()
    _obs_metrics.deactivate()


def _warn_fallback(exc: BaseException, missing: int, total: int) -> None:
    warnings.warn(
        f"process pool unavailable ({exc!r}); re-running {missing} of "
        f"{total} jobs serially (completed results are kept) — results "
        "are identical by construction",
        RuntimeWarning,
        stacklevel=3,
    )


__all__ = [
    "WorkersLike",
    "WorkerPool",
    "WORKERS_ENV",
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "backoff_delay",
    "detect_workers",
    "resolve_workers",
    "parallel_map",
]
