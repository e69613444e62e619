"""Resilient process-pool execution with a deterministic serial fallback.

Every parallel code path in this library follows one contract: the work is
split into independent jobs *before* execution, each job carries its own
pre-derived RNG stream (see :func:`repro.util.rng.spawn_rngs` /
:func:`repro.util.rng.derive_seed`), and results are merged in job order.
Whether the jobs run in this process (serial fallback) or in a process pool
is therefore unobservable in the results: parallel runs are bit-identical
to serial ones.  ``tests/search/test_parallel_determinism.py`` locks this
down per search method.

On top of the deterministic core, :func:`parallel_map` is an execution
layer hardened for long sweeps:

- **partial-result recovery** — when the pool dies mid-run
  (``BrokenProcessPool``, sandboxes that forbid ``fork``), results that
  already completed are kept and only the missing jobs re-run serially;
- **per-job retries** — ``retries=N`` re-submits a failed job up to ``N``
  times with capped exponential backoff before letting its exception
  propagate (default ``0``: exceptions propagate unchanged, as before);
- **per-job timeout** — ``timeout=T`` bounds the wall-clock wait for each
  pooled job; a job that exhausts its retries raises
  :class:`JobTimeoutError` (the serial path cannot preempt a running
  function, so there the timeout is not enforced);
- **checkpoint/resume** — ``checkpoint=SweepCheckpoint(...)`` records each
  completed job durably and, on a later run, skips every job already on
  disk, so an interrupted sweep resumes bit-identically
  (:mod:`repro.checkpoint`).

Pool lifetime is owned by :class:`WorkerPool`, a context-managed wrapper
around :class:`~concurrent.futures.ProcessPoolExecutor`:

- one-shot callers let :func:`parallel_map` create and dispose a pool per
  call (the historical behaviour);
- resident callers — the scheduling service in :mod:`repro.service` —
  create one :class:`WorkerPool` and pass it to every ``parallel_map``
  call (``pool=``) or submit to it directly, so workers (and their
  process-local distance-table caches) persist across requests;
- on abnormal exits (``KeyboardInterrupt``, ``SystemExit``, a hung job's
  :class:`JobTimeoutError`) the pool's workers are actively terminated
  and reaped instead of being orphaned mid-job.

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
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
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

#: Backoff schedule for ``retries``: attempt ``k`` sleeps a *full-jitter*
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

# Test seam: monkeypatched to observe/skip the backoff sleeps.
_sleep = time.sleep

_PENDING = object()


class JobTimeoutError(TimeoutError):
    """A pooled job exceeded its per-job ``timeout`` (after all retries)."""


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


def _reap(executor: Optional[ProcessPoolExecutor], *, kill: bool) -> None:
    """Shut an executor down and wait for its worker processes to exit.

    With ``kill=True`` live workers receive ``SIGTERM`` first, so a hung
    or interrupted job cannot keep the process tree alive; either way the
    workers are joined (reaped) before returning.
    """
    if executor is None:
        return
    procs = list(getattr(executor, "_processes", {}).values())
    manager = getattr(executor, "_executor_manager_thread", None)
    executor.shutdown(wait=False, cancel_futures=True)
    if kill:
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

    Both :func:`parallel_map` (via ``pool=``) and the resident scheduling
    service (:mod:`repro.service`) run on this class; a reused pool keeps
    each worker process — and its process-local distance/routing-table
    caches — warm across calls.
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

    def map(self, fn: Callable[[T], R], jobs: Iterable[T], *,
            retries: int = 0, timeout: Optional[float] = None,
            checkpoint: Optional[SweepCheckpoint] = None) -> List[R]:
        """:func:`parallel_map` on this pool (the pool stays open after)."""
        return parallel_map(fn, jobs, pool=self, retries=retries,
                            timeout=timeout, checkpoint=checkpoint)

    # -------------------------------------------------------------- #

    def restart(self) -> None:
        """Terminate the current workers; the next use gets a fresh pool.

        The resilience path for a resident pool: after a hung job or a
        broken executor, discard the damaged workers (killing them so
        they are reaped) without closing the pool for good.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        _reap(executor, kill=True)

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
        _reap(executor, kill=True)

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
                missing: List[int], retries: int,
                checkpoint: Optional[SweepCheckpoint]) -> None:
    """Run ``missing`` jobs in order in this process, with retries.

    Each job's lifecycle is reported as structured telemetry events
    (``parallel.job.started`` / ``.retry`` / ``.completed``); the retry
    event carries the attempt number, the backoff delay and the error —
    no-ops when no tracer is active.
    """
    for i in missing:
        attempt = 0
        _trace.event("parallel.job.started", job=i, mode="serial")
        while True:
            try:
                results[i] = fn(job_list[i])
                break
            except Exception as exc:
                if attempt >= retries:
                    raise
                delay = backoff_delay(attempt)
                _trace.event("parallel.job.retry", job=i, mode="serial",
                             attempt=attempt + 1, retries=retries,
                             delay_seconds=delay, error=repr(exc))
                _sleep(delay)
                attempt += 1
        _trace.event("parallel.job.completed", job=i, mode="serial",
                     attempts=attempt + 1)
        _record(checkpoint, i, results[i])


def _run_pool(pool: ProcessPoolExecutor, fn: Callable[[T], R],
              job_list: List[T], results: List, missing: List[int],
              retries: int, timeout: Optional[float],
              checkpoint: Optional[SweepCheckpoint]) -> None:
    """Run ``missing`` jobs on ``pool``, with per-job retries and timeout.

    Raises ``BrokenProcessPool`` upward (the caller falls back serially),
    :class:`JobTimeoutError` on an exhausted timeout, or the job's own
    exception once its retries are spent.
    """
    futures = {i: pool.submit(fn, job_list[i]) for i in missing}
    for i in missing:
        _trace.event("parallel.job.scheduled", job=i, mode="pool")
    attempts = {i: 0 for i in missing}
    for i in missing:
        while True:
            try:
                results[i] = futures[i].result(timeout=timeout)
                break
            except BrokenProcessPool:
                raise
            except _FuturesTimeout:
                if attempts[i] >= retries:
                    futures[i].cancel()
                    _trace.event("parallel.job.timed_out", job=i, mode="pool",
                                 timeout_seconds=timeout,
                                 attempts=attempts[i] + 1)
                    raise JobTimeoutError(
                        f"job {i} exceeded the per-job timeout of {timeout}s"
                        + (f" after {retries} retries" if retries else "")
                    ) from None
                attempts[i] += 1
                _trace.event("parallel.job.retry", job=i, mode="pool",
                             attempt=attempts[i], retries=retries,
                             delay_seconds=0.0,
                             error=f"timeout after {timeout}s")
                futures[i].cancel()
                futures[i] = pool.submit(fn, job_list[i])
            except Exception as exc:
                if attempts[i] >= retries:
                    raise
                delay = backoff_delay(attempts[i])
                _trace.event("parallel.job.retry", job=i, mode="pool",
                             attempt=attempts[i] + 1, retries=retries,
                             delay_seconds=delay, error=repr(exc))
                _sleep(delay)
                attempts[i] += 1
                futures[i] = pool.submit(fn, job_list[i])
        _trace.event("parallel.job.completed", job=i, mode="pool",
                     attempts=attempts[i] + 1)
        _record(checkpoint, i, results[i])


def parallel_map(
    fn: Callable[[T], R],
    jobs: Iterable[T],
    *,
    workers: WorkersLike = None,
    retries: int = 0,
    timeout: Optional[float] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    pool: Optional[WorkerPool] = None,
) -> List[R]:
    """Map ``fn`` over ``jobs``, preserving job order in the results.

    With a resolved worker count of 1 (the default) this is a plain serial
    loop.  With more workers the jobs run in a process pool; ``fn`` and
    every job must be picklable (top-level functions with value-like
    arguments).  Results come back in submission order either way, so
    callers can merge deterministically.

    Resilience knobs (all off by default):

    - ``retries`` — re-run a failing job up to this many extra times with
      capped exponential backoff; with ``0`` exceptions raised by ``fn``
      propagate unchanged in both modes.
    - ``timeout`` — per-job wall-clock bound, enforced in pool mode only
      (a serial loop cannot preempt ``fn``); exhausting it raises
      :class:`JobTimeoutError`.
    - ``checkpoint`` — a :class:`~repro.checkpoint.SweepCheckpoint`;
      completed jobs are recorded durably and skipped on re-runs, so an
      interrupted map resumes where it left off with identical results.
    - ``pool`` — a caller-owned :class:`WorkerPool` to run on.  The pool
      is left open afterwards (the caller's context manager closes it),
      its ``workers`` count takes precedence over ``workers``, and a job
      failure does not tear it down — only a hang or breakage triggers a
      :meth:`WorkerPool.restart`.

    If the pool itself cannot be created or dies (sandboxes that forbid
    ``fork``, resource exhaustion, a crashing worker), results that
    already completed are kept and only the unfinished jobs re-run on the
    serial path — the results are identical by contract, only slower.
    Abnormal exits (``KeyboardInterrupt``, a job that exhausted its
    ``timeout``) actively terminate and reap the workers instead of
    orphaning them mid-job.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
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
    owned = pool is None
    n = resolve_workers(workers) if owned else pool.workers
    with _trace.span("parallel.map", jobs=n_jobs, pending=len(missing),
                     workers=n) as sp:
        if n <= 1 or len(missing) <= 1:
            sp.set(mode="serial")
            _run_serial(fn, job_list, results, missing, retries, checkpoint)
            return results
        wp = WorkerPool(min(n, len(missing))) if owned else pool
        try:
            executor = wp.executor()
        except OSError as exc:
            sp.set(mode="serial-fallback")
            _warn_fallback(exc, len(missing), n_jobs)
            _run_serial(fn, job_list, results, missing, retries, checkpoint)
            return results
        sp.set(mode="pool")
        try:
            _run_pool(executor, fn, job_list, results, missing, retries,
                      timeout, checkpoint)
        except JobTimeoutError:
            # JobTimeoutError subclasses TimeoutError (an OSError): keep it
            # out of the pool-died fallback below — re-running a hung job
            # serially would hang the caller instead.  The hung worker is
            # killed and reaped either way (a shared pool gets fresh
            # workers on its next use).
            if owned:
                wp.terminate()
            else:
                wp.restart()
            raise
        except (BrokenProcessPool, OSError) as exc:
            if owned:
                wp.terminate()
            else:
                wp.restart()
            still_missing = [i for i in range(n_jobs) if results[i] is _PENDING]
            sp.set(mode="pool-then-serial")
            _warn_fallback(exc, len(still_missing), n_jobs)
            _run_serial(fn, job_list, results, still_missing, retries,
                        checkpoint)
        except Exception:
            # A job failed for good: an owned pool dies with the call
            # (workers killed and reaped — completed results are already
            # checkpointed for a later resume); a shared pool stays up for
            # its other users.
            if owned:
                wp.terminate()
            raise
        except BaseException:
            # KeyboardInterrupt / SystemExit: the process is going down —
            # kill and reap the workers regardless of who owns the pool so
            # none leak past the interrupt.
            wp.terminate()
            raise
        else:
            if owned:
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
    "JobTimeoutError",
    "detect_workers",
    "resolve_workers",
    "parallel_map",
]
