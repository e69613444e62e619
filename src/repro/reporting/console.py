"""The operator console: a minimal HTTP/1.0 endpoint over asyncio.

The scheduling daemon speaks a newline-framed JSON wire protocol on its
job socket; operators and scrapers speak HTTP.  This module is the
smallest bridge between the two worlds that is still a real server: a
plain HTTP/1.0 responder (request line + headers in, fixed
``Content-Length`` + ``Connection: close`` out, one request per
connection) with four routes:

- ``/healthz``  — liveness probe, ``ok`` in plain text;
- ``/metrics``  — Prometheus text exposition (see
  :mod:`repro.obs.export`);
- ``/status``   — the daemon's status snapshot as JSON;
- ``/report``   — a self-contained HTML report page (also served at
  ``/``).

Content is pulled from injected zero-argument providers at request
time, so the console never holds stale copies and never needs to know
what it fronts — a live :class:`repro.service.server.SchedulerService`
or a rendered variation study (``repro report --serve``).  Providers
run on the event-loop thread; they must be cheap and non-blocking.
Each answered request is counted as ``service.console.requests`` on the
active metrics registry (the daemon's, when it fronts one).

No dependency beyond asyncio: HTTP/1.0 with ``Connection: close`` needs
no keep-alive, no chunking and no pipelining, which keeps the whole
parser under a screen of code and the attack surface near zero.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Optional, Tuple

from repro.obs import metrics as _metrics

MAX_REQUEST_BYTES = 8192        # request line + headers; we accept no body
REQUEST_TIMEOUT = 5.0           # seconds to receive the full request

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
             405: "Method Not Allowed", 500: "Internal Server Error"}

TextProvider = Callable[[], str]
DictProvider = Callable[[], Dict[str, object]]


def _response(status: int, content_type: str, body: str) -> bytes:
    """One complete HTTP/1.0 response with explicit length and close."""
    payload = body.encode()
    head = (
        f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode() + payload


class ConsoleServer:
    """The HTTP/1.0 console; start/stop from a running event loop.

    Providers are optional: a route whose provider is missing answers
    404, so a console fronting only metrics need not fake a report.
    """

    def __init__(
        self,
        *,
        metrics: Optional[TextProvider] = None,
        status: Optional[DictProvider] = None,
        report: Optional[TextProvider] = None,
        health: Optional[TextProvider] = None,
    ):
        self._metrics = metrics
        self._status = status
        self._report = report
        self._health = health or (lambda: "ok")
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and serve; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_REQUEST_BYTES)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        """Close the listening socket (in-flight responses finish)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- #
    # request handling
    # ------------------------------------------------------------- #

    def _route(self, path: str) -> Tuple[int, str, str]:
        """Dispatch one GET path to ``(status, content type, body)``."""
        path = path.split("?", 1)[0]
        if path == "/healthz":
            return 200, "text/plain", self._health()
        if path == "/metrics":
            if self._metrics is None:
                return 404, "text/plain", "no metrics provider\n"
            return 200, "text/plain", self._metrics()
        if path == "/status":
            if self._status is None:
                return 404, "text/plain", "no status provider\n"
            return (200, "application/json",
                    json.dumps(self._status(), sort_keys=True) + "\n")
        if path in ("/", "/report"):
            if self._report is None:
                return 404, "text/plain", "no report provider\n"
            return 200, "text/html", self._report()
        return 404, "text/plain", f"unknown path {path}\n"

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve exactly one request, then close (HTTP/1.0 semantics)."""
        try:
            try:
                request_line = await asyncio.wait_for(
                    reader.readline(), REQUEST_TIMEOUT)
                # Drain headers up to the blank line; we never read a body.
                received = len(request_line)
                while True:
                    header = await asyncio.wait_for(
                        reader.readline(), REQUEST_TIMEOUT)
                    received += len(header)
                    if header in (b"\r\n", b"\n", b""):
                        break
                    if received > MAX_REQUEST_BYTES:
                        writer.write(_response(
                            400, "text/plain", "request too large\n"))
                        return
            except asyncio.TimeoutError:
                writer.write(_response(400, "text/plain",
                                       "request timed out\n"))
                return
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                writer.write(_response(400, "text/plain",
                                       "malformed request line\n"))
                return
            method, path = parts[0], parts[1]
            if method != "GET":
                writer.write(_response(405, "text/plain",
                                       f"method {method} not allowed\n"))
                return
            try:
                status, ctype, body = self._route(path)
            except Exception as exc:  # a provider failed; say so, stay up
                status, ctype, body = 500, "text/plain", f"error: {exc}\n"
            _metrics.inc("service.console.requests")
            writer.write(_response(status, ctype, body))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass


async def _serve_forever(console: ConsoleServer, host: str,
                         port: int) -> None:
    address = await console.start(host, port)
    print(f"operator console on http://{address[0]}:{address[1]}/ "
          "(ctrl-c to stop)")
    try:
        await asyncio.Event().wait()
    finally:
        await console.stop()


def serve_console(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    metrics: Optional[TextProvider] = None,
    status: Optional[DictProvider] = None,
    report: Optional[TextProvider] = None,
) -> None:
    """Run a standalone console until interrupted (``repro report --serve``)."""
    console = ConsoleServer(metrics=metrics, status=status, report=report)
    try:
        asyncio.run(_serve_forever(console, host, port))
    except KeyboardInterrupt:
        pass


__all__ = ["ConsoleServer", "serve_console", "MAX_REQUEST_BYTES",
           "REQUEST_TIMEOUT"]
