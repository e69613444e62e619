"""Content-addressed result store with TTL — the service's dedup layer.

Keys are request fingerprints (:meth:`ScheduleRequest.fingerprint`), i.e.
content hashes over everything that determines the result; values are the
canonical :class:`ScheduleResponse` dicts.  Because the scheduler is
deterministic, replaying a stored value is indistinguishable from
recomputing it — the store is a pure cache, the TTL only bounds staleness
against *code* changes (a redeployed service starts empty) and memory
growth.

Expiry uses an injectable monotonic clock so tests can step time instead
of sleeping; capacity eviction is LRU.  The store keeps no tallies: each
lookup and eviction is counted on the active
:class:`~repro.obs.metrics.MetricsRegistry` as
``service.store.{hits,misses,evictions,expirations,corruptions}`` (the
daemon's registry when it serves; no-ops when none is active).

Every entry carries an integrity digest — a SHA-256 over its canonical
JSON, computed at :meth:`ResultStore.put` and re-verified at every
:meth:`ResultStore.get`.  A value mutated behind the store's back (chaos
injection, a buggy in-process caller sharing the dict) is detected,
dropped and counted instead of served: a corrupted cache degrades to a
miss and the daemon recomputes, preserving the byte-identical-reply
invariant.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import metrics as _metrics


def _digest(value: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of ``value`` (sorted keys)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultStore:
    """A thread-safe LRU + TTL map from request fingerprint to response.

    Parameters
    ----------
    ttl:
        Seconds an entry stays servable after being stored; ``None``
        disables expiry.
    max_entries:
        Capacity bound; the least-recently-used entry is evicted beyond it.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, ttl: Optional[float] = 300.0, max_entries: int = 1024,
                 *, clock: Callable[[], float] = time.monotonic):
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0 seconds or None, got {ttl}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.ttl = ttl
        self.max_entries = int(max_entries)
        self._clock = clock
        self._entries: \
            "OrderedDict[str, Tuple[float, Dict[str, Any], str]]" = \
            OrderedDict()
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored response for ``key``, or ``None``.

        ``None`` covers missing, expired *and corrupted*: the entry's
        integrity digest is re-verified on every hit, and a value that no
        longer hashes to what was stored is dropped (and counted as a
        corruption) rather than served — the caller recomputes.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry[0], now):
                del self._entries[key]
                entry = None
                _metrics.inc("service.store.expirations")
            if entry is not None and _digest(entry[1]) != entry[2]:
                del self._entries[key]
                entry = None
                _metrics.inc("service.store.corruptions")
            if entry is not None:
                self._entries.move_to_end(key)
        _metrics.inc(f"service.store.{'misses' if entry is None else 'hits'}")
        return entry[1] if entry is not None else None

    def put(self, key: str, value: Dict[str, Any]) -> None:
        """Store (or refresh) ``key``; evicts LRU entries beyond capacity.

        The value's integrity digest is computed here and pinned to the
        entry; :meth:`get` re-verifies it before serving.
        """
        now = self._clock()
        digest = _digest(value)
        with self._lock:
            self._entries[key] = (now, value, digest)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                _metrics.inc("service.store.evictions")

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._entries.clear()

    # -------------------------------------------------------------- #

    def _expired(self, stored_at: float, now: float) -> bool:
        return self.ttl is not None and now - stored_at > self.ttl

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._expired(entry[0], now)

    def __repr__(self) -> str:
        return (f"ResultStore(size={len(self)}/{self.max_entries}, "
                f"ttl={self.ttl})")


__all__ = ["ResultStore"]
