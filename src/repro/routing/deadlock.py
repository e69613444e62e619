"""Channel-dependency-graph deadlock analysis (Dally & Seitz / Duato).

For wormhole switching without virtual channels, a routing function is
deadlock-free if its channel dependency graph (CDG) is acyclic: nodes are
directed channels ``u → v``; an edge ``(u→v) → (v→w)`` exists when some
packet may hold ``u→v`` while requesting ``v→w``.

Up*/down* routing is deadlock-free by construction (a down traversal can
never be followed by an up traversal, and up-only / down-only subgraphs are
DAGs ordered by (level, id)); the test-suite verifies this property on the
actual tables.  Minimal routing on cyclic topologies generally is *not*
deadlock-free — the rings used in tests demonstrate the cycle.

Both steps are reachability questions answered by
:func:`~repro.topology.graph.bfs_distances`: building the CDG takes one
multi-source BFS per destination over the routing function's next hops,
and a channel lies on a cycle iff it is reachable from its own
dependencies.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from repro.routing.base import Phase, RoutingAlgorithm
from repro.topology.graph import bfs_distances

Channel = Tuple[int, int]  # directed link u -> v


def channel_dependency_graph(routing: RoutingAlgorithm) -> Dict[Channel, Set[Channel]]:
    """Build the CDG induced by the routing function over all destinations.

    An edge is recorded whenever, for some destination, a packet can arrive
    at ``v`` over channel ``(u, v)`` in phase ``p`` and legally continue on
    ``(v, w)``.  The arrival phase is taken from the hop tuple the routing
    function itself returns, so this analyzes exactly the paths the
    simulator would use.  Per destination, one multi-source BFS over the
    routing function's own next hops finds every ``(switch, phase)`` state
    a packet from any source can occupy.
    """
    topo = routing.topology
    n = topo.num_switches
    deps: Dict[Channel, Set[Channel]] = {}
    for u, v in topo.links:
        deps[(u, v)] = set()
        deps[(v, u)] = set()
    sources = [int(routing.initial_phase()) * n + s for s in range(n)]
    for dst in range(n):
        # Flat state id phase * N + switch, as in the up*/down* state graph.
        succ = [[p * n + v
                 for v, p in routing.next_hops(s % n, Phase(s // n), dst)]
                for s in range(2 * n)]
        reached = bfs_distances(succ, sources[:dst] + sources[dst + 1:]) >= 0
        for a in np.flatnonzero(reached).tolist():
            for b in succ[a]:
                deps[(a % n, b % n)].update((b % n, c % n) for c in succ[b])
    return deps


def is_deadlock_free(routing: RoutingAlgorithm) -> bool:
    """True when the routing function's CDG is acyclic: no channel is
    reachable from its own dependencies."""
    deps = channel_dependency_graph(routing)
    index = {c: i for i, c in enumerate(deps)}
    succ = [[index[d] for d in deps[c]] for c in deps]
    return all(bfs_distances(succ, after)[i] < 0
               for i, after in enumerate(succ))


__all__ = ["Channel", "channel_dependency_graph", "is_deadlock_free"]
