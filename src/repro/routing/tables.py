"""Precomputed routing tables for the simulator.

The flit-level simulator consults the routing function on every header
arbitration; going through the full BFS machinery there would dominate the
run time.  :class:`RoutingTable` flattens a routing algorithm into dense
per-destination lookup lists:

``table.hops(current, phase, dst)`` → tuple of ``(neighbor, next_phase)``
candidates on shortest legal continuations.

The table additionally hosts the *engine caches*: per-slot routing-candidate
stores that every simulation engine (fast, vector) used to rebuild
per instantiation.  Candidates depend only on the routing table, the
channel layout (a pure function of the topology: the fast and vector
kernels model one virtual channel per link) and the adaptive flag, so one
store per ``adaptive`` value can be shared by every engine instance on the
same table — see :meth:`candidate_cache`.  The caches are dropped on
pickling (pool workers rebuild them lazily) so they never bloat job
payloads.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.routing.base import Hop, Phase, RoutingAlgorithm


class RoutingTable:
    """Dense (switch, phase, destination) → next-hop-options table."""

    def __init__(self, routing: RoutingAlgorithm):
        self.routing = routing
        self.topology = routing.topology
        n = self.topology.num_switches
        # _table[dst][phase][switch] = tuple of hops
        self._table: List[List[List[Tuple[Hop, ...]]]] = [
            [
                [routing.next_hops(s, Phase(p), dst) for s in range(n)]
                for p in (Phase.UP, Phase.DOWN)
            ]
            for dst in range(n)
        ]
        self._engine_caches: Dict[Hashable, object] = {}

    def hops(self, current: int, phase: Phase, dst: int) -> Tuple[Hop, ...]:
        """Legal shortest next hops from ``(current, phase)`` toward ``dst``."""
        return self._table[dst][phase][current]

    def path_length(self, src: int, dst: int) -> int:
        """Length in hops of the routes the table produces for ``src → dst``."""
        return int(self.routing.distances()[src, dst])

    # ------------------------------------------------------------------ #
    # engine-shared caches
    # ------------------------------------------------------------------ #

    def engine_cache(self, key: Hashable) -> dict:
        """A shared memo dict for simulation-engine lookaside structures.

        Engines key their derived, immutable lookup structures here (the
        vector engine's dense candidate tables, for example) so every
        engine instance on this table reuses one copy.  The store is
        per-process: :meth:`__getstate__` drops it, so pickled tables
        (process-pool jobs) arrive lean and rebuild lazily.
        """
        caches = self.__dict__.get("_engine_caches")
        if caches is None:
            caches = self._engine_caches = {}
        entry = caches.get(key)
        if entry is None:
            entry = caches[key] = {}
        return entry

    def candidate_cache(
        self, adaptive: bool,
    ) -> Dict[Tuple[int, Phase, int], Tuple[Tuple[int, int, Phase], ...]]:
        """The shared per-slot routing-candidate store for the fast engine.

        Maps ``(head_switch, phase, dst_switch)`` to the reference
        engine's free-list construction order of ``(cid, neighbor,
        next_phase)`` candidates (one channel per directed link, in hop
        order; truncated to the first hop when ``adaptive`` is false).
        The dict is created empty once per ``adaptive`` value and filled
        lazily by whichever engine first needs each key — the content is
        a pure function of the key, so sharing is safe and every later
        engine instance on this table starts warm.
        """
        return self.engine_cache(("candidates", bool(adaptive)))

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_engine_caches", None)
        return state


def build_routing_table(routing: RoutingAlgorithm) -> RoutingTable:
    """Convenience constructor mirroring the package's functional style."""
    return RoutingTable(routing)


__all__ = ["RoutingTable", "build_routing_table"]
