"""Integration tests for the self-healing tier outside the chaos harness.

Covers the pieces with their own contracts: the client's transparent
reconnect-and-resubmit (regression for the died-between-submit-and-reply
fault), typed startup failures from :func:`running_service`, priority-
aware load shedding at the queue, store integrity digests, WAL replay
of journaled requests this build can no longer parse, and the
status-protocol round trip of the new supervisor/WAL fields.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading

import pytest

from repro.chaos import ChaosProxy
from repro.service import (
    BackpressureError,
    Job,
    JobQueue,
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    ServiceStartupError,
    ServiceStatus,
    execute_request,
    running_service,
)
from repro.service.store import ResultStore
from repro.service.wal import WriteAheadLog
from repro.topology.irregular import random_irregular_topology


def fast_config(**overrides) -> ServiceConfig:
    defaults = dict(port=0, workers=2, max_batch=8)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def small_request(seed: int = 21) -> ScheduleRequest:
    topo = random_irregular_topology(8, seed=11, name="heal8")
    return ScheduleRequest.build(topo, clusters=4, method="tabu", seed=seed)


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestClientReconnect:
    """Regression: the connection dies between submit and reply."""

    def test_client_heals_a_dropped_reply_byte_identically(self):
        request = small_request()
        with running_service(fast_config()) as service:
            host, port = service.address

            def drop_first_submit_reply(conn: int, frame: int) -> str:
                return "drop" if (conn == 0 and frame == 1) else "forward"

            with ChaosProxy(host, port,
                            reply_plan=drop_first_submit_reply) as proxy:
                with ServiceClient(*proxy.address, retries=2,
                                   rng=random.Random(3)) as client:
                    client.ping()                      # conn 0, frame 0
                    reply = client.submit(request)     # reply dropped once
                assert proxy.faults_injected == 1
        assert reply["ok"]
        assert canon(reply["result"]) == canon(
            execute_request(request.to_dict()))

    def test_without_retries_the_drop_surfaces_as_a_connection_error(self):
        request = small_request()
        with running_service(fast_config()) as service:
            host, port = service.address

            def drop_every_reply(conn: int, frame: int) -> str:
                return "drop"

            with ChaosProxy(host, port,
                            reply_plan=drop_every_reply) as proxy:
                with ServiceClient(*proxy.address, retries=0,
                                   timeout=10.0) as client:
                    with pytest.raises((ConnectionError, OSError)):
                        client.submit(request)

    def test_shutdown_is_never_retried_but_ping_is(self):
        accepts = []
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        host, port = listener.getsockname()[:2]
        stop = threading.Event()

        def slam_the_door():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                accepts.append(1)
                conn.close()           # hang up before any reply

        thread = threading.Thread(target=slam_the_door, daemon=True)
        thread.start()
        try:
            with ServiceClient(host, port, retries=2, timeout=5.0,
                               rng=random.Random(1)) as client:
                with pytest.raises(ConnectionError):
                    client.ping()
            ping_attempts = len(accepts)
            accepts.clear()
            with ServiceClient(host, port, retries=2, timeout=5.0) as client:
                with pytest.raises(ConnectionError):
                    client.shutdown()
            shutdown_attempts = len(accepts)
        finally:
            stop.set()
            thread.join(timeout=5.0)
            listener.close()
        assert ping_attempts == 3      # retries + 1
        assert shutdown_attempts == 1  # never replayed


class TestStartupFailure:
    def test_bind_conflict_raises_a_typed_startup_error(self):
        blocker = socket.create_server(("127.0.0.1", 0))
        try:
            _, taken_port = blocker.getsockname()[:2]
            with pytest.raises(ServiceStartupError, match="failed to start"):
                with running_service(fast_config(port=taken_port)):
                    pass   # pragma: no cover - never reached
        finally:
            blocker.close()


class TestLoadShedding:
    @staticmethod
    def job(priority: int, tag: str) -> Job:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        return Job(request=None, payload={"tag": tag}, fingerprint=tag,
                   future=future, priority=priority)

    def test_a_higher_priority_job_evicts_the_lowest_youngest(self):
        async def _go():
            queue = JobQueue(max_pending=3)
            queue.put_nowait(self.job(0, "old-low"))
            queue.put_nowait(self.job(1, "mid"))
            queue.put_nowait(self.job(0, "young-low"))
            victim = queue.put_nowait(self.job(2, "urgent"))
            return victim, queue

        victim, queue = asyncio.run(_go())
        # Lowest priority loses; within priority 0 the youngest does.
        assert victim is not None and victim.fingerprint == "young-low"
        assert queue.depth == 3
        remaining = {job.fingerprint
                     for _, _, job in queue._queue._queue}
        assert remaining == {"old-low", "mid", "urgent"}

    def test_no_strictly_lower_job_means_backpressure_for_the_newcomer(self):
        async def _go():
            queue = JobQueue(max_pending=2)
            queue.put_nowait(self.job(5, "a"))
            queue.put_nowait(self.job(5, "b"))
            with pytest.raises(BackpressureError):
                queue.put_nowait(self.job(5, "c"))
            with pytest.raises(BackpressureError):
                queue.put_nowait(self.job(1, "d"))
            return queue.depth

        assert asyncio.run(_go()) == 2


class TestStoreIntegrity:
    def test_corrupted_entries_are_dropped_not_served(self):
        store = ResultStore()
        store.put("fp", {"f_g": 1.25, "partition": [0, 1]})
        with store._lock:
            store._entries["fp"][1]["f_g"] = -999.0   # bit-flip the value
        assert store.get("fp") is None
        assert store.stats().corruptions == 1
        assert store.get("fp") is None                # gone, not resurrected

    def test_intact_entries_round_trip_with_zero_corruptions(self):
        store = ResultStore()
        store.put("fp", {"f_g": 1.25})
        assert store.get("fp") == {"f_g": 1.25}
        assert store.stats().corruptions == 0


class TestWalReplay:
    def test_unparseable_journal_entry_is_settled_not_replayed(self,
                                                               tmp_path):
        """A WAL written by an older daemon may hold an accepted request
        this build rejects — here ``engine: "batch"``, a simulator engine
        that no longer exists.  Startup settles it instead of raising or
        crash-looping, and the daemon keeps serving."""
        wal_path = tmp_path / "svc.wal"
        legacy = small_request(seed=5).to_dict()
        legacy["simulate"] = {"engine": "batch", "points": 2,
                              "warmup": 10, "measure": 30}
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept("legacy-batch-engine", legacy).result()
        request = small_request()
        with running_service(fast_config(wal_path=wal_path)) as service:
            assert service.wal.pending() == []
            assert service._counters["replayed"] == 0
            with ServiceClient(*service.address) as client:
                reply = client.submit(request)
        assert reply["ok"]
        assert canon(reply["result"]) == canon(
            execute_request(request.to_dict()))


class TestStatusRoundTrip:
    def test_supervisor_and_wal_fields_cross_the_wire(self, tmp_path):
        config = fast_config(wal_path=tmp_path / "svc.wal",
                             request_deadline=30.0)
        with running_service(config) as service:
            with ServiceClient(*service.address) as client:
                status = client.status()
        assert status.supervisor is not None
        assert status.supervisor["breaker"]["state"] == "closed"
        assert status.supervisor["deadline_seconds"] == 30.0
        assert status.wal is not None and status.wal["pending"] == 0
        # And the dict form re-parses to the same structure.
        again = ServiceStatus.from_dict(status.to_dict())
        assert again.supervisor == status.supervisor
        assert again.wal == status.wal

    def test_legacy_status_payloads_still_parse(self):
        with running_service(fast_config()) as service:
            status = service.status()
        d = status.to_dict()
        d.pop("supervisor", None)
        d.pop("wal", None)
        legacy = ServiceStatus.from_dict(d)
        assert legacy.supervisor is None and legacy.wal is None
