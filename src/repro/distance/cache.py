"""Keyed LRU caching of distance and routing tables.

Every figure driver, benchmark and experiment rebuilds the same 16/24-switch
tables of equivalent distances and simulator routing tables dozens of times;
both are pure functions of (topology content, routing algorithm identity),
so this module memoizes them behind a content-hash key:

- :func:`topology_fingerprint` — SHA-256 over the switch count, the sorted
  link list and the port configuration.  Mutating a topology (adding or
  removing a link, changing host counts) necessarily changes the key.
- :func:`routing_cache_key` — the fingerprint plus the routing algorithm's
  class, report name and root (for rooted algorithms like up*/down*).

:class:`TableCache` is a small thread-safe LRU that counts its hits,
misses and evictions on the active metrics registry; a module-level
default instance backs :func:`cached_distance_table` /
:func:`cached_routing_table`, which the scheduler and experiment setups
use.  Caching is semantically invisible —
``DistanceTable`` values are immutable and ``RoutingTable`` is read-only
after construction — so it is always on; :func:`configure_cache` only
flushes it (cold-start measurements do).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.distance.table import (
    DistanceTable,
    build_distance_table,
    hop_distance_table,
)
from repro.obs import metrics as _metrics
from repro.routing.base import RoutingAlgorithm
from repro.routing.tables import RoutingTable
from repro.topology.graph import Topology

def topology_fingerprint(topology: Topology) -> str:
    """Stable content hash of a topology (links, sizes, port layout)."""
    h = hashlib.sha256()
    h.update(
        repr((
            topology.num_switches,
            topology.links,
            topology.hosts_per_switch,
            topology.switch_ports,
        )).encode()
    )
    return h.hexdigest()


def routing_cache_key(routing: RoutingAlgorithm, kind: str) -> Tuple:
    """Cache key identifying ``kind`` of table built from ``routing``.

    Includes the routing algorithm's class and name, its spanning-tree root
    when it has one (up*/down* tables differ per root) and the topology
    content hash — but *not* object identities, so equal topologies routed
    the same way share cache entries.
    """
    return (
        kind,
        type(routing).__name__,
        routing.name,
        getattr(routing, "root", None),
        topology_fingerprint(routing.topology),
    )


class TableCache:
    """A thread-safe LRU cache of immutable tables.

    Values are built at most once per key (under the lock — builders here
    are pure and fast relative to contention) and returned by reference;
    callers must treat them as immutable, which every cached table type is.
    """

    def __init__(self, maxsize: int = 32, *, name: str = "tables"):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.name = str(name)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss.

        Each lookup ticks the ``cache.<name>.{hits,misses,evictions}``
        counters on the active :class:`~repro.obs.metrics.MetricsRegistry`
        (a no-op when telemetry is off); ``repro report`` reads them back
        as the trace's table-cache hit rates.
        """
        with self._lock:
            if key in self._entries:
                _metrics.inc(f"cache.{self.name}.hits")
                self._entries.move_to_end(key)
                return self._entries[key]
            _metrics.inc(f"cache.{self.name}.misses")
            value = builder()
            self._entries[key] = value
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                _metrics.inc(f"cache.{self.name}.evictions")
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._entries.clear()


_default_cache = TableCache()


def configure_cache(*, clear: bool = False) -> None:
    """Flush the module-level cache when ``clear`` is true."""
    if clear:
        _default_cache.clear()


def cached_distance_table(routing: RoutingAlgorithm, *,
                          kind: str = "equivalent",
                          cache: Optional[TableCache] = None) -> DistanceTable:
    """:func:`build_distance_table` (or hop table) through the LRU cache.

    ``kind`` selects the distance model: ``"equivalent"`` (the paper's
    resistance table) or ``"hops"`` (the ablation baseline).  Pass an
    explicit ``cache`` to bypass the module-level one (tests do).
    """
    if kind == "equivalent":
        builder = build_distance_table
    elif kind == "hops":
        builder = hop_distance_table
    else:
        raise ValueError(f"unknown distance-table kind {kind!r}")
    cache = _default_cache if cache is None else cache
    key = routing_cache_key(routing, f"distance:{kind}")
    return cache.get_or_build(key, lambda: builder(routing))


def cached_routing_table(routing: RoutingAlgorithm, *,
                         cache: Optional[TableCache] = None) -> RoutingTable:
    """A simulator :class:`RoutingTable` through the LRU cache."""
    cache = _default_cache if cache is None else cache
    key = routing_cache_key(routing, "routing-table")
    return cache.get_or_build(key, lambda: RoutingTable(routing))


__all__ = [
    "TableCache",
    "topology_fingerprint",
    "routing_cache_key",
    "configure_cache",
    "cached_distance_table",
    "cached_routing_table",
]
