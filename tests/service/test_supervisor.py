"""Unit tests for the pool supervisor and its circuit breaker.

The breaker is tested against a stepped fake clock (no sleeping); the
supervisor against scripted fake pools that crash, hang or refuse on cue,
plus one real-pool crash-loop test that exercises the genuine
``BrokenProcessPool`` path end to end.
"""

from __future__ import annotations

import asyncio
import os
import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.parallel import WorkerPool
from repro.service.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    PoolSupervisor,
    WorkerCrashError,
)


@pytest.fixture(autouse=True)
def registry():
    """Each test counts on a fresh registry, as a daemon's loop does."""
    with use_registry(MetricsRegistry()) as reg:
        yield reg


def count(registry, name):
    """A supervisor counter's value (0 before its first event)."""
    counters = registry.snapshot()["counters"]
    return counters.get(f"service.supervisor.{name}", 0)


class SteppedClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_breaker(threshold=3, reset=2.0):
    clock = SteppedClock()
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=threshold,
                                           reset_timeout=reset), clock=clock)
    return breaker, clock


class TestCircuitBreaker:
    def test_stays_closed_below_the_threshold(self, registry):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.reject_after() is None
        assert count(registry, "breaker_trips") == 0

    def test_opens_at_the_threshold_with_a_retry_hint(self, registry):
        breaker, _ = make_breaker(threshold=3, reset=2.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert count(registry, "breaker_trips") == 1
        hint = breaker.reject_after()
        assert hint is not None and 0 < hint <= 2.0

    def test_half_open_after_the_reset_timeout_admits_traffic(self):
        breaker, clock = make_breaker(threshold=1, reset=2.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now += 2.5
        assert breaker.state == "half_open"
        assert breaker.reject_after() is None   # the probe is admitted

    def test_success_in_half_open_closes_failure_reopens(self):
        breaker, clock = make_breaker(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.now += 1.5
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed" and breaker.reject_after() is None

        breaker.record_failure()                # open again (threshold 1)
        clock.now += 1.5
        assert breaker.state == "half_open"
        breaker.record_failure()                # failed probe -> re-open
        assert breaker.state == "open"

    def test_a_single_success_resets_the_failure_count(self):
        breaker, _ = make_breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_status_is_json_ready(self, registry):
        breaker, _ = make_breaker(threshold=1)
        breaker.record_failure()
        assert breaker.status() == {"state": "open",
                                    "consecutive_failures": 1}
        assert count(registry, "breaker_trips") == 1

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            BreakerConfig(reset_timeout=0.0)


# --------------------------------------------------------------------- #
# scripted pools
# --------------------------------------------------------------------- #

class FakePool:
    """A pool whose ``submit`` follows a script of outcomes.

    Script entries: ``("ok", value)`` resolves immediately, ``"broken"``
    raises :class:`BrokenProcessPool`, ``"hang"`` returns a future that
    never resolves, ``"refuse"`` raises ``OSError`` (the no-fork sandbox).
    """

    def __init__(self, script):
        self.script = list(script)
        self.restarts = 0
        self.active = True

    def submit(self, fn, *args):
        step = self.script.pop(0) if self.script else ("ok", None)
        if step == "broken":
            raise BrokenProcessPool("scripted crash")
        if step == "refuse":
            raise OSError("scripted: fork forbidden")
        future: Future = Future()
        if step == "hang":
            return future
        kind, value = step
        assert kind == "ok"
        try:
            future.set_result(value if value is not None else fn(*args))
        except Exception as exc:       # the job's own failure
            future.set_exception(exc)
        return future

    def restart(self):
        self.restarts += 1


def run(coro):
    return asyncio.run(coro)


def _echo(x):
    return x


class TestPoolSupervisor:
    def test_success_passes_through_and_closes_the_breaker(self, registry):
        pool = FakePool([("ok", None)])
        sup = PoolSupervisor(pool, deadline=5.0)
        assert run(sup.run(_echo, 42)) == 42
        assert count(registry, "restarts") == 0
        assert sup.breaker.state == "closed"

    def test_crash_restarts_and_redispatches_to_success(self, registry):
        pool = FakePool(["broken", ("ok", 7)])
        sup = PoolSupervisor(pool, max_redispatch=2,
                             backoff_cap=0.01, rng=random.Random(1))
        assert run(sup.run(_echo, 7)) == 7
        assert pool.restarts == 1
        assert count(registry, "restarts") == 1
        assert count(registry, "redispatches") == 1

    def test_crash_loop_exhausts_the_budget_typed(self, registry):
        pool = FakePool(["broken", "broken", "broken"])
        sup = PoolSupervisor(pool, max_redispatch=2,
                             backoff_cap=0.01, rng=random.Random(1))
        with pytest.raises(WorkerCrashError) as err:
            run(sup.run(_echo, 1))
        assert err.value.code == "crashed"
        assert pool.restarts == 3
        assert count(registry, "redispatches") == 2

    def test_hang_trips_the_deadline_and_restarts_the_pool(self, registry):
        pool = FakePool(["hang"])
        sup = PoolSupervisor(pool, deadline=0.05)
        with pytest.raises(DeadlineExceededError) as err:
            run(sup.run(_echo, 1))
        assert err.value.code == "deadline"
        assert pool.restarts == 1
        assert count(registry, "deadline_trips") == 1

    def test_open_breaker_rejects_before_touching_the_pool(self):
        pool = FakePool([])
        breaker, _ = make_breaker(threshold=1, reset=5.0)
        breaker.record_failure()
        sup = PoolSupervisor(pool, breaker=breaker)
        with pytest.raises(CircuitOpenError) as err:
            run(sup.run(_echo, 1))
        assert err.value.code == "degraded"
        assert err.value.retry_after > 0
        assert pool.restarts == 0 and pool.script == []

    def test_consecutive_crashes_open_the_breaker(self):
        pool = FakePool(["broken"] * 6)
        breaker, _ = make_breaker(threshold=2, reset=60.0)
        sup = PoolSupervisor(pool, max_redispatch=1, breaker=breaker,
                             backoff_cap=0.01, rng=random.Random(1))
        with pytest.raises(WorkerCrashError):
            run(sup.run(_echo, 1))
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            run(sup.run(_echo, 1))

    def test_pool_refusal_falls_back_to_threads_for_good(self):
        pool = FakePool(["refuse"])
        sup = PoolSupervisor(pool, deadline=5.0)
        assert run(sup.run(_echo, 11)) == 11
        assert sup.thread_fallback
        # Subsequent runs never touch the pool again.
        assert run(sup.run(_echo, 12)) == 12
        assert pool.script == []

    def test_jobs_own_exception_propagates_unchanged(self):
        def boom():
            raise ValueError("the job's own bug")

        pool = FakePool([])
        sup = PoolSupervisor(pool, deadline=5.0)

        async def _go():
            # FakePool.submit calls fn eagerly, so the error surfaces
            # through the resolved future exactly like a pool would.
            pool.script = [("ok", None)]
            return await sup.run(boom)

        with pytest.raises(ValueError, match="the job's own bug"):
            run(_go())
        assert pool.restarts == 0

    def test_heartbeat_probes_an_idle_pool_and_restarts_on_a_miss(
            self, registry):
        # First probe echoes wrong -> miss + restart; second echoes right.
        class ProbePool(FakePool):
            def __init__(self):
                super().__init__([])
                self.probes = 0

            def submit(self, fn, *args):
                self.probes += 1
                future: Future = Future()
                if self.probes == 1:
                    future.set_result(-1)        # wrong echo -> miss
                else:
                    future.set_result(fn(*args))
                return future

        pool = ProbePool()
        sup = PoolSupervisor(pool, heartbeat_interval=0.02,
                             heartbeat_timeout=1.0)

        async def _go():
            await sup.start()
            for _ in range(200):
                await asyncio.sleep(0.01)
                if count(registry, "heartbeat_misses") >= 1 \
                        and count(registry, "heartbeats") >= 1:
                    break
            await sup.stop()

        run(_go())
        assert count(registry, "heartbeat_misses") >= 1
        assert count(registry, "heartbeats") >= 1
        assert pool.restarts >= 1

    def test_constructor_validates_its_knobs(self):
        pool = FakePool([])
        with pytest.raises(ValueError, match="deadline"):
            PoolSupervisor(pool, deadline=0.0)
        with pytest.raises(ValueError, match="max_redispatch"):
            PoolSupervisor(pool, max_redispatch=-1)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            PoolSupervisor(pool, heartbeat_interval=0.0)


def _exit_hard():
    os._exit(13)


class TestRealPool:
    def test_real_worker_crash_is_typed_and_the_pool_recovers(self,
                                                               registry):
        pool = WorkerPool(workers=2)
        try:
            sup = PoolSupervisor(pool, max_redispatch=1,
                                 backoff_cap=0.01, rng=random.Random(1))

            async def _go():
                with pytest.raises(WorkerCrashError):
                    await sup.run(_exit_hard)
                # The restarted pool serves clean work again.
                return await sup.run(_echo, 99)

            assert run(_go()) == 99
            assert count(registry, "restarts") >= 1
        finally:
            pool.terminate()
