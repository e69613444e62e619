"""End-to-end service tests over a real loopback socket.

The centrepiece is the determinism contract: an identical request returns
a byte-identical canonical payload whether it is computed, folded onto an
identical in-flight request, or replayed from the result store — only the
reply envelope's ``served`` field differs.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service import (
    AdmissionPolicy,
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    execute_request,
    running_service,
)
from repro.service.protocol import MAX_LINE_BYTES
from repro.topology.irregular import random_irregular_topology


def fast_config(**overrides) -> ServiceConfig:
    defaults = dict(port=0, workers=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def poll_result(client, ticket, timeout=30.0):
    """Poll ``result`` until the ticket resolves; fails the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reply = client.result(ticket)
        if "result" in reply:
            return reply
        time.sleep(0.02)
    pytest.fail("ticket never resolved")


@pytest.fixture(scope="module")
def service():
    """One shared daemon for the read-mostly tests in this module."""
    with running_service(fast_config()) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with ServiceClient(*service.address) as c:
        c.wait_until_ready()
        yield c


class TestBasicOps:
    def test_ping_reports_the_package_version(self, client):
        from repro import __version__

        reply = client.ping()
        assert reply["ok"] and reply["version"] == __version__

    def test_status_round_trips_through_the_protocol(self, client):
        status = client.status()
        assert status.queue_capacity == 64
        assert status.pool["workers"] == 2

    def test_unknown_op_is_an_error_not_a_crash(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client._call({"op": "launch_missiles"})
        assert client.ping()["ok"]   # connection survives

    def test_garbage_line_is_a_protocol_error(self, service):
        with ServiceClient(*service.address) as c:
            c.connect()
            c._sock.sendall(b"{this is not json}\n")
            raw = c._rfile.readline(MAX_LINE_BYTES)
            reply = json.loads(raw)
            assert reply["ok"] is False
            assert reply["error"]["code"] == "protocol"


class TestDeterminismContract:
    def test_solo_batched_and_stored_are_bit_identical(self, make_request):
        # Fresh service so the store starts empty.  Requests are served
        # alone, from the store and concurrently; every payload must be
        # byte-identical to a direct in-process execution.
        req = make_request(seed=21)
        expected = canon(execute_request(req.to_dict()))
        with running_service(fast_config()) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                first = c.submit(req)                # computed
                stored = c.submit(req)               # replayed from store

                # Concurrent: distinct seeds in one burst from parallel
                # clients, so several jobs share the pool at once.
                results = {}

                def submit(seed):
                    with ServiceClient(*svc.address) as cc:
                        r = cc.submit(make_request(seed=seed))
                        results[seed] = r

                threads = [threading.Thread(target=submit, args=(s,))
                           for s in (22, 23, 24)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert first["served"]["from"] == "computed"
        assert stored["served"]["from"] == "store"
        assert canon(first["result"]) == expected
        assert canon(stored["result"]) == expected
        for seed, reply in results.items():
            direct = canon(
                execute_request(make_request(seed=seed).to_dict()))
            assert canon(reply["result"]) == direct

    def test_priority_does_not_leak_into_the_payload(self, make_request):
        with running_service(fast_config()) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                a = c.submit(make_request(seed=31, priority=0))
                b = c.submit(make_request(seed=31, priority=9))
        assert canon(a["result"]) == canon(b["result"])
        assert b["served"]["from"] in ("store", "inflight")


def submit_concurrently(address, request, n_clients):
    """``n_clients`` threads submit ``request`` at once; returns replies."""
    replies = []
    lock = threading.Lock()

    def submit():
        with ServiceClient(*address) as c:
            r = c.submit(request)
            with lock:
                replies.append(r)

    threads = [threading.Thread(target=submit) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies


class TestCoalescing:
    def test_concurrent_duplicates_compute_once(self, make_request):
        n_clients = 6
        with running_service(fast_config()) as svc:
            replies = submit_concurrently(svc.address, make_request(seed=41),
                                          n_clients)
            with ServiceClient(*svc.address) as c:
                status = c.status()
        assert len(replies) == n_clients
        payloads = {canon(r["result"]) for r in replies}
        assert len(payloads) == 1
        # The first submit registers the in-flight future when the queue
        # admits it; every duplicate folds onto it or hits the store.
        assert status.served["computed"] == 1
        assert status.served["store"] + status.served["inflight"] \
            == n_clients - 1

    def test_concurrent_duplicates_with_a_wal_execute_and_journal_once(
            self, make_request, tmp_path):
        n_clients = 6
        wal_path = tmp_path / "svc.wal"
        config = ServiceConfig(port=0, workers=2, wal_path=wal_path)
        with running_service(config) as svc:
            replies = submit_concurrently(svc.address, make_request(seed=43),
                                          n_clients)
            with ServiceClient(*svc.address) as c:
                status = c.status()
        assert len({canon(r["result"]) for r in replies}) == 1
        assert status.served["computed"] == 1
        records = [json.loads(line)
                   for line in wal_path.read_text().splitlines()[1:]]
        assert [r["op"] for r in records] == ["accept", "done"]


class TestAdmissionAndBackpressure:
    def test_oversized_topology_is_rejected(self):
        big = random_irregular_topology(16, seed=5)
        req = ScheduleRequest.build(big, clusters=4)
        cfg = fast_config(admission=AdmissionPolicy(max_switches=8))
        with running_service(cfg) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                with pytest.raises(ServiceError) as exc:
                    c.submit(req)
                assert exc.value.code == "rejected"
                served = c.status().rejected
        assert served["admission"] == 1

    def test_backpressure_carries_retry_after(self, make_request, tmp_path):
        # One worker has two in-flight slots; two slow jobs fill them and
        # the next request occupies the single queue slot, so every
        # further no-wait submit must bounce with a retry hint (distinct
        # seeds, so nothing coalesces).
        from repro.chaos import ChaoticExecutor, slow_at

        executor = ChaoticExecutor(slow_at(1, 2, delay=1.5),
                                   str(tmp_path / "latch"))
        cfg = fast_config(workers=1, max_pending=1, executor=executor)
        with running_service(cfg) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                codes = []
                for seed in range(60, 70):
                    try:
                        c.submit(make_request(seed=seed), wait=False)
                    except ServiceError as exc:
                        codes.append(exc.code)
                        if exc.code == "backpressure":
                            assert exc.extra["retry_after"] > 0
                assert "backpressure" in codes

    def test_malformed_request_payload_is_rejected(self, service, client,
                                                   make_request):
        bad = make_request().to_dict()
        bad["seed"] = "seven"
        with pytest.raises(ServiceError) as exc:
            client.submit_payload(bad)
        assert exc.value.code == "bad-request"


class TestTickets:
    def test_no_wait_returns_a_ticket_resolvable_later(self, make_request):
        req = make_request(seed=51)
        with running_service(fast_config()) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                reply = c.submit(req, wait=False)
                ticket = reply["ticket"]
                assert ticket == req.fingerprint()
                r = poll_result(c, ticket)
        assert canon(r["result"]) == canon(execute_request(req.to_dict()))

    def test_queued_ticket_is_pending_then_resolves(self, make_request,
                                                    tmp_path):
        # Two slow jobs hold both in-flight slots of the single worker, so
        # the third no-wait request sits in the queue: a result poll must
        # see it as pending, not as an unknown ticket.
        from repro.chaos import ChaoticExecutor, slow_at

        busy = [make_request(seed=52), make_request(seed=54)]
        queued = make_request(seed=53)
        executor = ChaoticExecutor(slow_at(1, 2, delay=1.5),
                                   str(tmp_path / "latch"))
        cfg = fast_config(workers=1, executor=executor)
        with running_service(cfg) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                for request in busy:
                    c.submit(request, wait=False)
                ticket = c.submit(queued, wait=False)["ticket"]
                assert c.status().queue_depth == 1
                pending = c.result(ticket)
                assert pending["status"] == "pending"
                assert "result" not in pending
                r = poll_result(c, ticket)
        assert canon(r["result"]) == canon(execute_request(queued.to_dict()))

    def test_unknown_ticket_is_an_error(self, client):
        with pytest.raises(ServiceError, match="unknown-ticket"):
            client.result("0" * 64)


class TestDegradedRequests:
    def test_faulted_topology_is_served_degraded(self, service_topo):
        from repro.faults.model import FaultScenario

        req = ScheduleRequest.build(
            service_topo, clusters=4,
            faults=FaultScenario(links=(service_topo.links[0],)))
        with running_service(fast_config()) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                reply = c.submit(req)
        result = reply["result"]
        assert result["degraded"] is not None
        assert result["partition"] is None
        assert canon(result) == canon(execute_request(req.to_dict()))


class TestShutdown:
    def test_shutdown_op_stops_the_daemon_and_reaps_the_pool(self,
                                                             make_request):
        with running_service(fast_config()) as svc:
            with ServiceClient(*svc.address) as c:
                c.wait_until_ready()
                c.submit(make_request(seed=61))
                assert c.shutdown()["ok"]
            # The context manager joins the daemon thread; afterwards the
            # pool must be closed (its workers reaped).
        assert svc.pool.closed
        assert not svc.pool.active

    def test_stop_fails_pending_futures_instead_of_hanging(self, make_request,
                                                           tmp_path):
        # The only job hangs in its worker for 30 s and its ticket has no
        # waiter: stopping must fail the pending future and kill the
        # worker instead of waiting for the job to return.
        from repro.chaos import ChaoticExecutor, hang_at

        executor = ChaoticExecutor(hang_at(1, delay=30.0),
                                   str(tmp_path / "latch"))
        with running_service(fast_config(executor=executor)) as svc:
            address = svc.address
            with ServiceClient(*address) as c:
                c.wait_until_ready()
                c.submit(make_request(seed=62), wait=False)
            deadline = time.monotonic() + 10.0
            while svc.supervisor.inflight == 0:
                assert time.monotonic() < deadline, "job never dispatched"
                time.sleep(0.02)
            start = time.monotonic()
        assert time.monotonic() - start < 10.0
        assert svc.pool.closed
        with pytest.raises((ConnectionRefusedError, ConnectionError,
                            OSError)):
            ServiceClient(*address).ping()
