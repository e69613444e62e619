"""One registry per daemon: ``status``, ``/metrics`` and a trace agree.

The ``status`` op, the console's ``/metrics`` page and a ``--trace``
run's final metrics record all read the same counters, so for one
traffic mix every count must match across the three.  The key sets of
the ``status`` reply are pinned: scripts and ``bench/`` read them.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.obs import MetricsRegistry, trace_run, use_registry
from repro.obs.export import parse_exposition, prom_name, validate_exposition
from repro.obs.sinks import MemorySink
from repro.service import (
    AdmissionPolicy,
    SchedulerService,
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    running_service,
)
from repro.service.protocol import decode_line, encode_line
from repro.topology.irregular import random_irregular_topology

STATUS_KEYS = {
    "type", "version", "package_version", "uptime_seconds",
    "requests_total", "served", "rejected", "queue_depth",
    "queue_capacity", "inflight", "store", "pool", "supervisor",
}
SERVED_KEYS = {"computed", "store", "inflight"}
REJECTED_KEYS = {"backpressure", "admission", "protocol", "failed", "shed",
                 "degraded", "deadline"}
STORE_KEYS = {"size", "hits", "misses", "evictions", "expirations",
              "corruptions"}
SUPERVISOR_COUNTS = ("restarts", "redispatches", "deadline_trips",
                     "heartbeats", "heartbeat_misses")
SUPERVISOR_KEYS = set(SUPERVISOR_COUNTS) | {
    "breaker", "deadline_seconds", "heartbeat_interval", "inflight",
    "thread_fallback",
}
BREAKER_KEYS = {"state", "consecutive_failures", "trips"}


def http_get(address, path: str) -> str:
    """The body of one console GET."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.split()[1] == b"200", head
    return body.decode()


def status_counts(status):
    """Every event count of a ``status`` dict, keyed by its metric name."""
    counts = {"service.requests": status["requests_total"]}
    for section in ("served", "rejected"):
        for key, value in status[section].items():
            counts[f"service.{section}.{key}"] = value
    for key, value in status["store"].items():
        if key != "size":
            counts[f"service.store.{key}"] = value
    for key in SUPERVISOR_COUNTS:
        counts[f"service.supervisor.{key}"] = status["supervisor"][key]
    counts["service.supervisor.breaker_trips"] = \
        status["supervisor"]["breaker"]["trips"]
    return counts


class TestStatusKeys:
    def test_key_sets_are_pinned(self):
        with running_service(ServiceConfig(port=0, workers=1)) as svc:
            d = svc.status().to_dict()
        assert set(d) == STATUS_KEYS
        assert set(d["served"]) == SERVED_KEYS
        assert set(d["rejected"]) == REJECTED_KEYS
        assert set(d["store"]) == STORE_KEYS
        assert set(d["supervisor"]) == SUPERVISOR_KEYS
        assert set(d["supervisor"]["breaker"]) == BREAKER_KEYS

    def test_wal_and_console_sections(self, tmp_path):
        config = ServiceConfig(port=0, workers=1, console_port=0,
                               wal_path=tmp_path / "svc.wal")
        with running_service(config) as svc:
            d = svc.status().to_dict()
        assert set(d) == STATUS_KEYS | {"wal", "console"}
        assert set(d["wal"]) == {"path", "pending", "recovered"}
        assert set(d["console"]) == {"host", "port", "requests"}


class TestOneRegistry:
    def test_metrics_are_valid_under_an_active_registry(self, make_request):
        # The daemon's loop runs where a registry is already active, as
        # under ``repro --trace PATH serve``.
        async def _go():
            service = SchedulerService(
                ServiceConfig(port=0, workers=1, console_port=0))
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *service.address)
                writer.write(encode_line(
                    {"op": "submit", "request": make_request().to_dict()}))
                reply = decode_line(await reader.readline())
                writer.close()
                await writer.wait_closed()
                reader, writer = await asyncio.open_connection(
                    *service.console.address)
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                return reply, raw.partition(b"\r\n\r\n")[2].decode()
            finally:
                await service.stop()

        with use_registry(MetricsRegistry()):
            reply, text = asyncio.run(_go())
        assert reply["ok"]
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        assert families["repro_service_queue_depth"][0][1] == 0
        assert families["repro_service_served_computed_total"][0][1] == 1
        assert families["repro_service_supervisor_restarts_total"]

    def test_status_metrics_and_trace_agree(self, make_request, tmp_path):
        from repro.chaos import ChaoticExecutor, slow_at

        # Job 2 is slow, so its duplicate folds onto it in flight.
        executor = ChaoticExecutor(slow_at(2, delay=1.0),
                                   str(tmp_path / "latch"))
        config = ServiceConfig(port=0, workers=1, console_port=0,
                               executor=executor,
                               admission=AdmissionPolicy(max_switches=8))
        folded = make_request(seed=71)
        too_big = ScheduleRequest.build(
            random_irregular_topology(16, seed=5), clusters=4)
        sink = MemorySink()
        with trace_run(sink):
            with running_service(config) as svc:
                with ServiceClient(*svc.address) as client:
                    client.wait_until_ready()
                    computed = client.submit(make_request(seed=70))
                    client.submit(folded, wait=False)
                    inflight = client.submit(folded)
                    stored = client.submit(folded)
                    with pytest.raises(ServiceError, match=r"^\[rejected\]"):
                        client.submit(too_big)
                status = svc.status().to_dict()
                console = status["console"]
                text = http_get((console["host"], console["port"]),
                                "/metrics")
        assert [r["served"]["from"] for r in (computed, inflight, stored)] \
            == ["computed", "inflight", "store"]
        counts = status_counts(status)
        assert counts["service.requests"] == 5
        assert counts["service.served.computed"] == 1
        assert counts["service.served.inflight"] == 1
        assert counts["service.served.store"] == 1
        assert counts["service.rejected.admission"] == 1

        assert validate_exposition(text) == []
        families = parse_exposition(text)
        traced = sink.by_type("metrics")[-1]["metrics"]["counters"]
        for name, value in counts.items():
            assert families[prom_name(name) + "_total"][0][1] == value, name
            assert traced[name] == value, name
