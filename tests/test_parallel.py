"""Tests for the resilient process-pool executor layer."""

import multiprocessing
import os
import time

import pytest

import repro.parallel as parallel_mod
from repro.checkpoint import SweepCheckpoint
from repro.obs.sinks import MemorySink
from repro.obs.trace import Tracer, use_tracer
import random

from repro.parallel import (
    WORKERS_ENV,
    backoff_delay,
    detect_workers,
    parallel_map,
    resolve_workers,
)


def _square(x):
    return x * x


def _mark_and_square(job):
    """Append a marker per execution (O_APPEND is atomic), then square."""
    x, marker = job
    fd = os.open(marker, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"%d\n" % x)
    finally:
        os.close(fd)
    return x * x


def _crash_worker_on(job):
    """Kill the whole worker process for the poisoned job (pool workers only)."""
    x, marker, poison = job
    if x == poison and multiprocessing.current_process().name != "MainProcess":
        time.sleep(0.2)       # let earlier jobs complete first
        os._exit(1)           # hard kill: BrokenProcessPool upstream
    return _mark_and_square((x, marker))


def _slow_square(x):
    time.sleep(1.5)
    return x * x


def _fail_or_sleep(x):
    """Raise at once for a negative job; otherwise sleep, then square."""
    if x < 0:
        raise ValueError(f"bad job {x}")
    return _slow_square(x)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_explicit_int(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    def test_auto_detects_cpus(self):
        assert resolve_workers("auto") == detect_workers()
        assert resolve_workers(0) == detect_workers()
        assert resolve_workers("AUTO") == detect_workers()

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert resolve_workers() == detect_workers()
        monkeypatch.setenv(WORKERS_ENV, "")
        assert resolve_workers() == 1

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(2) == 2

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_garbage_string_raises(self):
        with pytest.raises(ValueError):
            resolve_workers("many")

    def test_detect_workers_positive(self):
        assert detect_workers() >= 1


class TestParallelMap:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_preserves_order(self, workers):
        jobs = list(range(10))
        assert parallel_map(_square, jobs, workers=workers) == [
            x * x for x in jobs
        ]

    def test_empty_jobs(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_job_stays_serial(self):
        assert parallel_map(_square, [3], workers=8) == [9]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exceptions_propagate(self, workers):
        with pytest.raises(ValueError):
            parallel_map(int, ["1", "nope", "3"], workers=workers)

    def test_serial_and_parallel_identical(self):
        jobs = list(range(20))
        assert parallel_map(_square, jobs, workers=1) == parallel_map(
            _square, jobs, workers=3
        )

    def test_failing_pooled_job_leaves_no_live_worker(self):
        # Job 0 raises while job 1 is still sleeping in the other worker:
        # the call must kill and reap both workers before re-raising.
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(ValueError, match="bad job"):
            parallel_map(_fail_or_sleep, [-1, 1], workers=2)
        after = {p.pid for p in multiprocessing.active_children()}
        assert after == before


class TestPartialRecovery:
    def test_crashing_worker_keeps_completed_results(self, tmp_path):
        # Job 5 hard-kills its worker after the earlier jobs finished.
        # The pool dies (BrokenProcessPool); the fallback must keep every
        # completed result and re-run ONLY the missing jobs serially.
        marker = str(tmp_path / "runs.log")
        jobs = [(x, marker, 5) for x in range(8)]
        with pytest.warns(RuntimeWarning, match="completed results are kept"):
            out = parallel_map(_crash_worker_on, jobs, workers=2)
        assert out == [x * x for x in range(8)]
        runs = [int(l) for l in
                open(marker).read().splitlines()]
        # Every job ran at least once, and the early jobs that completed
        # in the pool were NOT re-run by the serial fallback.
        assert sorted(set(runs)) == list(range(8))
        assert runs.count(0) == 1
        assert runs.count(1) == 1

    def test_fallback_reruns_only_missing(self, tmp_path, monkeypatch):
        # Force pool creation to fail outright: all jobs run serially once.
        marker = str(tmp_path / "runs.log")

        def boom(*a, **k):
            raise OSError("no fork for you")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        jobs = [(x, marker) for x in range(6)]
        with pytest.warns(RuntimeWarning):
            out = parallel_map(_mark_and_square, jobs, workers=4)
        assert out == [x * x for x in range(6)]
        runs = [int(l) for l in open(marker).read().splitlines()]
        assert sorted(runs) == list(range(6))


class TestRetries:
    def test_backoff_delay_is_full_jitter_within_bounds(self):
        # Full jitter: uniform in [0, min(cap, base * 2**attempt)].  The
        # distribution check: every draw respects the ceiling, draws for
        # the same attempt differ (decorrelation), and the ceiling grows
        # exponentially until the cap clamps it.
        base, cap = parallel_mod.BACKOFF_BASE, parallel_mod.BACKOFF_CAP
        for attempt in range(8):
            ceiling = min(cap, base * 2 ** attempt)
            draws = [backoff_delay(attempt) for _ in range(200)]
            assert all(0.0 <= d <= ceiling for d in draws)
            assert len(set(draws)) > 1          # jittered, not a schedule
            assert max(draws) > 0.5 * ceiling   # spans the range

    def test_backoff_delay_hard_cap_for_any_attempt(self):
        for attempt in (20, 50, 500):
            assert 0.0 <= backoff_delay(attempt) <= parallel_mod.BACKOFF_CAP

    def test_backoff_delay_seeded_rng_is_reproducible(self):
        a = [backoff_delay(k, rng=random.Random(7)) for k in range(5)]
        b = [backoff_delay(k, rng=random.Random(7)) for k in range(5)]
        assert a == b

    def test_backoff_delay_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay(-1)
        with pytest.raises(ValueError, match="base and cap"):
            backoff_delay(0, base=-0.1)

class TestLifecycleEvents:
    def test_serial_jobs_emit_started_and_completed(self):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            parallel_map(_square, [1, 2], workers=1)
        started = sink.by_name("parallel.job.started")
        completed = sink.by_name("parallel.job.completed")
        assert [e["attrs"]["job"] for e in started] == [0, 1]
        assert [e["attrs"]["job"] for e in completed] == [0, 1]
        (span_rec,) = sink.by_name("parallel.map")
        assert span_rec["attrs"]["jobs"] == 2
        assert span_rec["attrs"]["mode"] == "serial"

    def test_pool_jobs_emit_scheduled_and_completed(self):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            parallel_map(_square, [1, 2, 3], workers=2)
        assert len(sink.by_name("parallel.job.scheduled")) == 3
        assert len(sink.by_name("parallel.job.completed")) == 3
        (span_rec,) = sink.by_name("parallel.map")
        assert span_rec["attrs"]["mode"] == "pool"

    def test_checkpoint_resume_event(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ck = SweepCheckpoint(path, key="k", total=3)
        ck.record(0, 1)
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            parallel_map(_square, [1, 2, 3],
                         checkpoint=SweepCheckpoint(path, key="k", total=3))
        (load,) = sink.by_name("checkpoint.load")
        assert load["attrs"]["completed"] == 1
        (resume,) = sink.by_name("checkpoint.resume")
        assert resume["attrs"]["completed"] == 1
        assert resume["attrs"]["total"] == 3

    def test_no_tracer_means_no_overhead_errors(self):
        # The instrumented paths must run cleanly with telemetry off.
        assert parallel_map(_square, [1, 2], workers=1) == [1, 4]

    def test_forked_workers_do_not_write_to_the_trace_file(self, tmp_path):
        # Workers inherit the tracer contextvar and the open JSONL sink
        # under fork; the pool initializer detaches telemetry, so the
        # trace must stay a valid single-writer file (manifest first,
        # exactly once) even for pooled runs.
        from repro.obs import collect_manifest, trace_run
        from repro.obs.schema import validate_trace_file

        path = tmp_path / "run.jsonl"
        manifest = collect_manifest("test", [], workers=2)
        with trace_run(path, manifest=manifest):
            assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        counts = validate_trace_file(path)
        assert counts["manifest"] == 1
        assert counts["metrics"] == 1


class TestCheckpointIntegration:
    def test_completed_jobs_are_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ck = SweepCheckpoint(path, key="k")
        assert parallel_map(_square, [1, 2, 3], checkpoint=ck) == [1, 4, 9]
        assert len(ck) == 3
        # Resume: fn would now fail loudly if any job were re-run.
        ck2 = SweepCheckpoint(path, key="k")
        out = parallel_map(_boom, [1, 2, 3], checkpoint=ck2)
        assert out == [1, 4, 9]

    def test_partial_checkpoint_resumes_missing_only(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ck = SweepCheckpoint(path, key="k", total=4)
        ck.record(0, 0)
        ck.record(2, 4)
        out = parallel_map(_square, [0, 1, 2, 3],
                           checkpoint=SweepCheckpoint(path, key="k", total=4))
        assert out == [0, 1, 4, 9]


def _boom(x):
    raise AssertionError("job re-ran despite being checkpointed")


class TestWorkerPool:
    def test_construction_is_lazy(self):
        pool = parallel_mod.WorkerPool(2)
        assert not pool.active and not pool.closed
        pool.close()

    def test_submit_reuses_one_executor(self):
        with parallel_mod.WorkerPool(2) as pool:
            assert pool.submit(_square, 2).result() == 4
            executor = pool._executor
            assert pool.submit(_square, 3).result() == 9
            assert pool._executor is executor      # same processes, warm
        assert pool.closed and not pool.active

    def test_submit_single_jobs(self):
        with parallel_mod.WorkerPool(2) as pool:
            futures = [pool.submit(_square, x) for x in (2, 3)]
            assert [f.result() for f in futures] == [4, 9]

    def test_closed_pool_refuses_work(self):
        pool = parallel_mod.WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_square, 1)

    def test_restart_discards_workers_but_keeps_the_pool_usable(self):
        with parallel_mod.WorkerPool(2) as pool:
            assert pool.submit(_square, 2).result() == 4
            pool.restart()
            assert not pool.active and not pool.closed
            assert pool.submit(_square, 3).result() == 9

    def test_terminate_reaps_worker_processes(self):
        pool = parallel_mod.WorkerPool(2)
        futures = [pool.submit(_slow_square, x) for x in (1, 2)]
        assert [f.result() for f in futures] == [1, 4]
        procs = list(pool._executor._processes.values())
        assert procs
        pool.terminate()
        for proc in procs:
            assert not proc.is_alive()
        assert pool.closed

    def test_keyboard_interrupt_exit_reaps_workers(self):
        # The KeyboardInterrupt teardown contract: leaving the with-block
        # on a BaseException must kill and join the worker processes, not
        # leave them waiting on the job queue forever.
        pool = parallel_mod.WorkerPool(2)
        procs = []
        with pytest.raises(KeyboardInterrupt):
            with pool:
                assert pool.submit(_square, 2).result() == 4
                procs = list(pool._executor._processes.values())
                raise KeyboardInterrupt()
        assert procs
        for proc in procs:
            assert not proc.is_alive()
        assert pool.closed

    def test_clean_exit_waits_for_inflight_jobs(self):
        with parallel_mod.WorkerPool(2) as pool:
            future = pool.submit(_slow_square, 7)
        assert future.result(timeout=0) == 49   # already done at exit
