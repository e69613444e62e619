"""Admission policy and job-queue tests (priority, backpressure, shedding)."""

from __future__ import annotations

import asyncio

import pytest

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
    return Job(payload=request.to_dict(), fingerprint=request.fingerprint(),
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

    def test_get_waits_for_work(self, make_request):
        async def body():
            q = JobQueue(max_pending=8)
            job = _job(make_request(seed=1))

            async def later():
                await asyncio.sleep(0.02)
                q.put_nowait(job)

            task = asyncio.ensure_future(later())
            assert await q.get() is job
            await task
            assert q.depth == 0
        run(body())
