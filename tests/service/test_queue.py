"""Admission policy and job-queue tests (priority, backpressure, dispatch)."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import ServiceConfig
from repro.service.protocol import SimulateSpec
from repro.service.queue import (
    AdmissionError,
    AdmissionPolicy,
    BackpressureError,
    Job,
    JobQueue,
)
from repro.topology.irregular import random_irregular_topology


def run(coro):
    return asyncio.run(coro)


def _job(request, *, priority=0) -> Job:
    """Build a Job; must be called inside a running event loop."""
    return Job(request=request, payload=request.to_dict(),
               fingerprint=request.fingerprint(),
               future=asyncio.get_running_loop().create_future(),
               priority=priority)


class TestAdmissionPolicy:
    def test_default_policy_admits_paper_requests(self, make_request):
        AdmissionPolicy().check(make_request())

    def test_topology_size_bound(self, make_request):
        big = random_irregular_topology(16, seed=1)
        req = make_request(topology=big)
        with pytest.raises(AdmissionError, match="switches"):
            AdmissionPolicy(max_switches=8).check(req)

    def test_cluster_bound(self, make_request):
        with pytest.raises(AdmissionError, match="clusters"):
            AdmissionPolicy(max_clusters=2).check(make_request())

    def test_method_allowlist(self, make_request):
        policy = AdmissionPolicy(allowed_methods=frozenset({"random"}))
        policy.check(make_request(method="random"))
        with pytest.raises(AdmissionError, match="not admitted"):
            policy.check(make_request(method="tabu"))

    def test_simulation_bounds(self, make_request):
        req = make_request(
            simulate=SimulateSpec(points=8, warmup=100, measure=1000))
        with pytest.raises(AdmissionError, match="points"):
            AdmissionPolicy(max_simulate_points=4).check(req)
        with pytest.raises(AdmissionError, match="cycles"):
            AdmissionPolicy(max_simulate_cycles=1000).check(req)


class TestJobQueue:
    def test_priority_order_fifo_within_priority(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            low1 = _job(make_request(seed=1), priority=0)
            low2 = _job(make_request(seed=2), priority=0)
            high = _job(make_request(seed=3), priority=5)
            q.put_nowait(low1)
            q.put_nowait(low2)
            q.put_nowait(high)
            assert await q.get() is high
            assert await q.get() is low1
            assert await q.get() is low2
        run(body())

    def test_backpressure_when_full(self, make_request):
        async def body():
            q = JobQueue(max_pending=2)
            q.put_nowait(_job(make_request(seed=1)))
            q.put_nowait(_job(make_request(seed=2)))
            with pytest.raises(BackpressureError) as exc:
                q.put_nowait(_job(make_request(seed=3)))
            assert exc.value.retry_after > 0
        run(body())

    def test_depth_tracks_puts_and_gets(self, make_request):
        async def body():
            q = JobQueue(max_pending=4)
            assert q.depth == 0
            q.put_nowait(_job(make_request(seed=1)))
            assert q.depth == 1
            await q.get()
            assert q.depth == 0
        run(body())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            JobQueue(max_pending=0)

    def test_drain_empties_the_queue(self, make_request):
        async def body():
            q = JobQueue(max_pending=4)
            for s in range(3):
                q.put_nowait(_job(make_request(seed=s)))
            assert len(q.drain()) == 3
            assert q.depth == 0
        run(body())


class TestWorkConservingDispatch:
    def test_default_config_dispatches_without_holding(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            q.put_nowait(_job(make_request(seed=1)))

            async def late():
                await asyncio.sleep(0.01)
                q.put_nowait(_job(make_request(seed=2)))

            task = asyncio.ensure_future(late())
            batch = await q.get_batch(max_batch=4,
                                      window=ServiceConfig().batch_window)
            await task
            assert len(batch) == 1
            assert q.depth == 1
        run(body())

    def test_takes_the_backlog_up_to_max_batch(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            for s in range(5):
                q.put_nowait(_job(make_request(seed=s)))
            batch = await q.get_batch(max_batch=4, window=0.0)
            assert len(batch) == 4
            assert q.depth == 1
        run(body())


class TestBatchWindow:
    def test_collects_whatever_is_queued(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            for s in range(3):
                q.put_nowait(_job(make_request(seed=s)))
            batch = await q.get_batch(max_batch=8, window=0.01)
            assert len(batch) == 3
        run(body())

    def test_max_batch_caps_the_drain(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            for s in range(5):
                q.put_nowait(_job(make_request(seed=s)))
            batch = await q.get_batch(max_batch=2, window=0.01)
            assert len(batch) == 2
            assert q.depth == 3
        run(body())

    def test_max_batch_one_degrades_to_single_dispatch(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            q.put_nowait(_job(make_request(seed=1)))
            q.put_nowait(_job(make_request(seed=2)))
            batch = await q.get_batch(max_batch=1, window=1.0)
            assert len(batch) == 1
        run(body())

    def test_window_picks_up_late_arrivals(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            q.put_nowait(_job(make_request(seed=1)))

            async def late():
                await asyncio.sleep(0.02)
                q.put_nowait(_job(make_request(seed=2)))

            task = asyncio.ensure_future(late())
            batch = await q.get_batch(max_batch=4, window=0.5)
            await task
            assert len(batch) == 2
        run(body())

    def test_first_pop_waits_for_work(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)

            async def later():
                await asyncio.sleep(0.02)
                q.put_nowait(_job(make_request(seed=1)))

            task = asyncio.ensure_future(later())
            batch = await q.get_batch(max_batch=4, window=0.01)
            await task
            assert len(batch) == 1
        run(body())
