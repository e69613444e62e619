"""The HTTP operator console: routing, error handling, live daemon."""

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.export import parse_exposition, validate_exposition
from repro.reporting.console import ConsoleServer


def http_get(request: bytes, **providers):
    """Start a console, send one raw request; the raw response and the
    number of requests the console counted."""

    async def _run():
        console = ConsoleServer(**providers)
        host, port = await console.start("127.0.0.1", 0)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request)
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            return data
        finally:
            await console.stop()

    with use_registry(MetricsRegistry()) as registry:
        data = asyncio.run(_run())
    counters = registry.snapshot()["counters"]
    return data, counters.get("service.console.requests", 0)


def parse_response(raw: bytes):
    """``(status, headers, body)`` from one HTTP/1.0 response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        headers[key.lower()] = value
    return status, headers, body


class TestRouting:
    def test_healthz_defaults_to_ok(self):
        raw, served = http_get(b"GET /healthz HTTP/1.0\r\n\r\n")
        status, headers, body = parse_response(raw)
        assert status == 200 and body == b"ok"
        assert headers["connection"] == "close"
        assert int(headers["content-length"]) == len(body)
        assert served == 1

    def test_metrics_route(self):
        raw, _ = http_get(b"GET /metrics HTTP/1.0\r\n\r\n",
                          metrics=lambda: "# HELP x x\n# TYPE x counter\nx 1\n")
        status, headers, body = parse_response(raw)
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert validate_exposition(body.decode()) == []

    def test_status_route_is_json(self):
        raw, _ = http_get(b"GET /status HTTP/1.0\r\n\r\n",
                          status=lambda: {"b": 2, "a": 1})
        status, headers, body = parse_response(raw)
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        assert json.loads(body) == {"a": 1, "b": 2}

    def test_report_served_at_root_and_report(self):
        for path in (b"/", b"/report"):
            raw, _ = http_get(b"GET " + path + b" HTTP/1.0\r\n\r\n",
                              report=lambda: "<html>hi</html>")
            status, headers, body = parse_response(raw)
            assert status == 200 and body == b"<html>hi</html>"
            assert headers["content-type"].startswith("text/html")

    def test_query_strings_are_stripped(self):
        raw, _ = http_get(b"GET /healthz?probe=1 HTTP/1.0\r\n\r\n")
        assert parse_response(raw)[0] == 200

    def test_missing_provider_is_404(self):
        for path in (b"/metrics", b"/status", b"/report"):
            raw, _ = http_get(b"GET " + path + b" HTTP/1.0\r\n\r\n")
            assert parse_response(raw)[0] == 404

    def test_unknown_path_is_404(self):
        raw, _ = http_get(b"GET /nope HTTP/1.0\r\n\r\n")
        assert parse_response(raw)[0] == 404


class TestErrorHandling:
    def test_non_get_is_405(self):
        raw, _ = http_get(b"POST /healthz HTTP/1.0\r\n\r\n")
        assert parse_response(raw)[0] == 405

    def test_malformed_request_line_is_400(self):
        raw, _ = http_get(b"BOGUS\r\n\r\n")
        assert parse_response(raw)[0] == 400

    def test_oversized_headers_are_400(self):
        filler = b"X-Pad: " + b"a" * 4000 + b"\r\n"
        raw, _ = http_get(b"GET / HTTP/1.0\r\n" + filler * 4 + b"\r\n",
                          report=lambda: "x")
        assert parse_response(raw)[0] == 400

    def test_provider_exception_is_500_and_server_survives(self):
        def boom():
            raise RuntimeError("kaput")

        async def _run():
            console = ConsoleServer(metrics=boom)
            host, port = await console.start("127.0.0.1", 0)
            try:
                out = []
                for path in (b"/metrics", b"/healthz"):
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(b"GET " + path + b" HTTP/1.0\r\n\r\n")
                    await writer.drain()
                    out.append(await reader.read())
                    writer.close()
                    await writer.wait_closed()
                return out
            finally:
                await console.stop()

        first, second = asyncio.run(_run())
        assert parse_response(first)[0] == 500
        assert b"kaput" in first
        assert parse_response(second)[0] == 200   # still serving


class TestLiveDaemon:
    """The console answering while the daemon schedules real traffic."""

    @pytest.fixture(scope="class")
    def daemon(self):
        from repro.service import ServiceConfig, running_service

        config = ServiceConfig(port=0, workers=1, console_port=0)
        with running_service(config) as svc:
            yield svc

    def _console_get(self, daemon, path: str) -> bytes:
        import socket

        console = daemon.status().console
        with socket.create_connection(
                (console["host"], console["port"]), timeout=5) as sock:
            sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_status_reports_the_console(self, daemon):
        console = daemon.status().console
        assert console is not None and console["port"] > 0

    def test_endpoints_answer_while_serving_traffic(self, daemon):
        from repro.service import ScheduleRequest, ServiceClient
        from repro.topology.irregular import random_irregular_topology

        topo = random_irregular_topology(8, seed=11, name="console8")
        with ServiceClient(*daemon.address) as client:
            client.wait_until_ready()
            reply = client.submit(
                ScheduleRequest.build(topo, clusters=4, seed=1))
        assert "result" in reply

        status, _, body = parse_response(
            self._console_get(daemon, "/healthz"))
        assert status == 200 and body == b"ok"

        status, _, body = parse_response(
            self._console_get(daemon, "/metrics"))
        assert status == 200
        text = body.decode()
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        assert families["repro_service_requests_total"][0][1] >= 1.0

        status, _, body = parse_response(self._console_get(daemon, "/status"))
        assert status == 200
        payload = json.loads(body)
        assert payload["type"] == "service_status"
        assert payload["requests_total"] >= 1

        status, _, body = parse_response(self._console_get(daemon, "/report"))
        assert status == 200 and body.startswith(b"<!DOCTYPE html>")

    def test_console_requests_are_counted(self, daemon):
        before = daemon.status().console["requests"]
        self._console_get(daemon, "/healthz")
        assert daemon.status().console["requests"] > before
