"""Blocking client for the scheduling service.

A thin synchronous wrapper over the newline-JSON protocol — one socket,
one request/reply in flight at a time — used by ``repro submit`` /
``repro status``, the test suite and the ``service-16sw`` benchmark
workload (which opens one client per simulated user).

Server-side rejections surface as :class:`ServiceError` carrying the
envelope's error ``code`` (``backpressure``, ``rejected``, ``bad-request``,
…) and any extra fields (e.g. ``retry_after``), so callers can implement
retry policy without string matching.

Transport faults are healed transparently for *idempotent* operations:
when the connection dies or the reply frame is torn mid-read, the client
reconnects and re-sends with full-jitter backoff
(:func:`repro.parallel.backoff_delay`), up to ``retries`` times.  This is
safe because every retryable op is idempotent by construction — ``ping``
and ``status`` are reads, and ``submit``/``result`` are keyed by the
request's *content fingerprint*: a replayed submit deduplicates against
the store or the in-flight table server-side and yields the byte-identical
canonical payload.  ``shutdown`` is never retried, and a structured error
reply (:class:`ServiceError`) is a *successful* exchange — it propagates
immediately, retry policy for those belongs to the caller.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, Optional

from repro.parallel import backoff_delay
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    ScheduleRequest,
    ServiceStatus,
    decode_line,
    encode_line,
)

#: Ops safe to replay on a dead connection: reads, plus the fingerprint-
#: keyed submit/result pair (deduplicated server-side).  ``shutdown`` is
#: deliberately absent.
IDEMPOTENT_OPS = frozenset({"ping", "status", "submit", "result"})


class ServiceError(Exception):
    """A structured error reply from the service."""

    def __init__(self, code: str, message: str, **extra: Any):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.extra = extra

    @classmethod
    def from_envelope(cls, envelope: Dict[str, Any]) -> "ServiceError":
        err = envelope.get("error")
        if not isinstance(err, dict):
            return cls("malformed", f"malformed error envelope: {envelope!r}")
        extra = {k: v for k, v in err.items() if k not in ("code", "message")}
        return cls(str(err.get("code", "unknown")),
                   str(err.get("message", "")), **extra)


class ServiceClient:
    """One connection to a running service; safe for sequential use.

    Usable as a context manager::

        with ServiceClient(host, port) as client:
            reply = client.submit(request)
    """

    def __init__(self, host: str, port: int, *, timeout: float = 120.0,
                 retries: int = 2, rng: Optional[random.Random] = None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self._rng = rng or random.Random()
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # -------------------------------------------------------------- #
    # connection plumbing
    # -------------------------------------------------------------- #

    def connect(self) -> None:
        """Open the socket (idempotent)."""
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply exchange; raises ServiceError on error replies.

        Idempotent ops (:data:`IDEMPOTENT_OPS`) are transparently
        reconnected and re-sent when the transport dies or the reply
        frame is torn, with full-jitter backoff between attempts; the
        final failure propagates unchanged once ``retries`` is spent.
        """
        attempts = (self.retries + 1
                    if message.get("op") in IDEMPOTENT_OPS else 1)
        for attempt in range(attempts):
            try:
                return self._exchange(message)
            except (ConnectionError, ProtocolError, OSError):
                self.close()
                if attempt + 1 >= attempts:
                    raise
                time.sleep(backoff_delay(attempt, rng=self._rng))
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and read one reply on the current connection."""
        self.connect()
        try:
            self._sock.sendall(encode_line(message))
            raw = self._rfile.readline(MAX_LINE_BYTES + 1)
        except OSError:
            self.close()
            raise
        if not raw:
            self.close()
            raise ConnectionError("service closed the connection")
        reply = decode_line(raw)
        if not reply.get("ok"):
            raise ServiceError.from_envelope(reply)
        return reply

    # -------------------------------------------------------------- #
    # operations
    # -------------------------------------------------------------- #

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the reply (includes the server version)."""
        return self._call({"op": "ping"})

    def status(self) -> ServiceStatus:
        """The service's current counters as a :class:`ServiceStatus`."""
        reply = self._call({"op": "status"})
        try:
            return ServiceStatus.from_dict(reply.get("status"))
        except ProtocolError as exc:
            raise ServiceError("malformed", f"bad status reply: {exc}") \
                from None

    def submit(self, request: ScheduleRequest, *,
               wait: bool = True) -> Dict[str, Any]:
        """Submit a request.

        With ``wait=True`` (default) blocks until the result is computed
        and returns the full reply: ``reply["result"]`` is the canonical
        response payload, ``reply["served"]`` says how it was served.
        With ``wait=False`` returns immediately with a ``ticket`` (the
        request fingerprint) to poll through :meth:`result`.
        """
        return self._call({"op": "submit", "request": request.to_dict(),
                           "wait": wait})

    def submit_payload(self, payload: Dict[str, Any], *,
                       wait: bool = True) -> Dict[str, Any]:
        """Submit a pre-encoded request dict (the CLI's file-input path)."""
        return self._call({"op": "submit", "request": payload, "wait": wait})

    def result(self, ticket: str) -> Dict[str, Any]:
        """Look up a previously submitted ticket.

        Returns the reply; ``reply.get("result")`` is the payload when
        done, else ``reply["status"] == "pending"``.
        """
        return self._call({"op": "result", "ticket": ticket})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to stop (acknowledged before it goes down)."""
        return self._call({"op": "shutdown"})

    def wait_until_ready(self, *, timeout: float = 30.0,
                         interval: float = 0.05) -> Dict[str, Any]:
        """Poll :meth:`ping` until the service answers or ``timeout``."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.ping()
            except (OSError, ConnectionError) as exc:
                last = exc
                self.close()
                time.sleep(interval)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not ready after {timeout}s"
        ) from last


__all__ = ["IDEMPOTENT_OPS", "ServiceClient", "ServiceError"]
