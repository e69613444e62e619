"""Structured tracing: nested spans and point events.

A :class:`Tracer` turns instrumented code into a stream of records —
*spans* (named intervals with a parent, measured on the monotonic clock)
and *events* (named points in time) — delivered to a pluggable sink
(:mod:`repro.obs.sinks`).  The active tracer is carried in a
:class:`contextvars.ContextVar`, so instrumented library code calls the
module-level :func:`span` / :func:`event` helpers and never threads a
tracer handle through its signatures.

The inertness contract: with no tracer active (the default), :func:`span`
returns a shared no-op context manager and :func:`event` returns
immediately — one context-variable read per call, no allocation beyond
the caller's keyword dict.  No code path here touches any RNG stream, so
enabling tracing cannot perturb a deterministic computation; the parity
and determinism suites assert exactly that.

Spans are emitted on *exit* (children before parents); the report layer
rebuilds the tree from ``span_id``/``parent_id``.  All timestamps come
from :func:`time.perf_counter` — monotonic, arbitrary origin — so only
durations and intra-run ordering are meaningful.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro.obs.sinks import Sink

_ACTIVE_TRACER: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_obs_tracer", default=None
)


@dataclass
class TraceEvent:
    """Typed view of one trace record (a span or a point event).

    The tracer emits plain dicts for speed; this dataclass is the parsed
    form used by :mod:`repro.obs.report`.  ``kind`` is ``"span"`` or
    ``"event"``; spans carry a ``duration``, events do not.
    """

    kind: str
    name: str
    t: float
    duration: Optional[float] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """The JSONL record form of this event (see :mod:`repro.obs.schema`)."""
        if self.kind == "span":
            return {
                "type": "span",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "t_start": self.t,
                "t_end": (self.t + self.duration
                          if self.duration is not None else self.t),
                "duration": self.duration,
                "attrs": dict(self.attrs),
            }
        return {
            "type": "event",
            "name": self.name,
            "t": self.t,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Parse a JSONL span/event record back into a :class:`TraceEvent`."""
        rtype = record.get("type")
        if rtype == "span":
            return cls(
                kind="span",
                name=record["name"],
                t=float(record["t_start"]),
                duration=(float(record["duration"])
                          if record.get("duration") is not None else None),
                span_id=record.get("span_id"),
                parent_id=record.get("parent_id"),
                attrs=dict(record.get("attrs", {})),
            )
        if rtype == "event":
            return cls(
                kind="event",
                name=record["name"],
                t=float(record["t"]),
                span_id=record.get("span_id"),
                attrs=dict(record.get("attrs", {})),
            )
        raise ValueError(f"not a span/event record: type={rtype!r}")


class _SpanHandle:
    """A live span: context-manager state handed out by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "t_start", "attrs",
                 "_token")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.t_start = 0.0
        self._token = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the span before it closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._token = self.tracer._span_stack.set(self.span_id)
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t_end = time.perf_counter()
        self.tracer._span_stack.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", repr(exc))
        self.tracer._emit({
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start": self.t_start,
            "t_end": t_end,
            "duration": t_end - self.t_start,
            "attrs": self.attrs,
        })


class _NullSpan:
    """The shared no-op span returned when no tracer is active."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        """Discard attributes (no tracer is recording them)."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested spans and point events into a sink.

    Parameters
    ----------
    sink:
        Any object with ``emit(record: dict)`` (see
        :mod:`repro.obs.sinks`).  Records are plain JSON-ready dicts.

    Span nesting is tracked per execution context (a
    :class:`~contextvars.ContextVar` holding the current span id), so
    spans opened in different threads or asyncio tasks parent correctly.
    """

    def __init__(self, sink: Sink):
        self.sink = sink
        self._next_id = 0
        self._span_stack: ContextVar[Optional[int]] = ContextVar(
            "repro_obs_span", default=None
        )

    def _emit(self, record: Dict[str, Any]) -> None:
        self.sink.emit(record)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def span(self, name: str, /, **attrs: Any) -> _SpanHandle:
        """Open a nested span; use as a context manager.

        The span records ``perf_counter`` enter/exit times and is emitted
        on exit with its parent span id (if any).  Extra keyword
        arguments become span attributes; more can be attached through
        :meth:`_SpanHandle.set` before the block closes.
        """
        return _SpanHandle(self, name, self._new_id(),
                           self._span_stack.get(), attrs)

    def event(self, name: str, /, **attrs: Any) -> None:
        """Record an instantaneous named event under the current span."""
        self._emit({
            "type": "event",
            "name": name,
            "t": time.perf_counter(),
            "span_id": self._span_stack.get(),
            "attrs": attrs,
        })


def current_tracer() -> Optional[Tracer]:
    """The tracer active in this context, or ``None`` (tracing disabled)."""
    return _ACTIVE_TRACER.get()


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Make ``tracer`` the active tracer for the duration of the block."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


def span(name: str, /, **attrs: Any):
    """Open a span on the active tracer — a shared no-op when disabled.

    This is the instrumentation entry point used throughout the library::

        with obs.span("sweep.load", points=9) as sp:
            ...
            sp.set(completed=9)

    With no active tracer the returned object is a singleton whose
    ``__enter__``/``__exit__``/``set`` do nothing, so the disabled cost is
    one context-variable read plus the caller's keyword dict.
    """
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, /, **attrs: Any) -> None:
    """Record a point event on the active tracer; no-op when disabled."""
    tracer = _ACTIVE_TRACER.get()
    if tracer is not None:
        tracer.event(name, **attrs)


def deactivate() -> None:
    """Unconditionally clear the active tracer in this context.

    Fork-safety hook: a forked pool worker inherits the parent's tracer
    contextvar (and, through it, the parent's open sink).  Workers call
    this at startup so telemetry stays parent-side — the source of the
    serial ≡ pooled event-stream guarantee.
    """
    _ACTIVE_TRACER.set(None)


__all__ = [
    "TraceEvent",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "span",
    "event",
    "deactivate",
]
