"""Up*/down* routing (Autonet-style).

A BFS spanning tree is grown from a root switch; every link is oriented so
that its "up" end is the endpoint closer to the root (ties by lower id).
A path is *legal* iff it consists of zero or more up traversals followed by
zero or more down traversals.  This forbids some minimal paths — the effect
the paper's distance model is designed to capture — and guarantees both
connectivity and deadlock freedom.

Implementation: a packet's routing state is ``(switch, phase)`` with
``phase`` from :class:`~repro.routing.base.Phase`; legality becomes a plain
reachability problem on a directed *state graph* with ``2N`` nodes, state
``phase * N + switch``:

- an up traversal keeps phase ``UP``;
- a down traversal moves (or keeps) phase ``DOWN``;
- no edge ever leaves ``DOWN`` for ``UP``.

One :func:`~repro.topology.graph.bfs_distances` per state gives the legal
distance between every pair of states.  Two slices of that matrix are
kept: the forward rows from each ``(src, UP)`` injection state, and the
remaining distance from every state to each destination switch (arriving
in either phase completes the route).  Shortest legal distances, per-state
next hops and shortest-path link supports all read those two arrays: a
state edge ``(pu, u) → (pv, v)`` lies on a shortest ``src → dst`` path iff
``fwd[src, pu, u] + 1 + rest[dst, pv, v]`` equals the ``src → dst``
distance.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.routing.base import Hop, Phase, RoutingAlgorithm
from repro.topology.graph import Topology, bfs_distances


def bfs_levels(topology: Topology, root: int) -> np.ndarray:
    """BFS level of every switch from ``root`` (the spanning-tree depth)."""
    adj = [topology.neighbors(s) for s in range(topology.num_switches)]
    return bfs_distances(adj, [root]).astype(np.int64)


def choose_root(topology: Topology) -> int:
    """Deterministic root election: maximum degree, ties by lowest id.

    Autonet elects the root dynamically; any deterministic rule preserves
    the algorithm's structure, and max-degree roots tend to give shallower
    trees (slightly better legal distances).
    """
    best = 0
    best_deg = topology.degree(0)
    for s in range(1, topology.num_switches):
        d = topology.degree(s)
        if d > best_deg:
            best, best_deg = s, d
    return best


class UpDownRouting(RoutingAlgorithm):
    """Up*/down* routing over a fixed topology.

    Parameters
    ----------
    topology:
        The switch network (must be connected).
    root:
        Spanning-tree root.  ``None`` elects one via :func:`choose_root`.
    """

    def __init__(self, topology: Topology, *, root: Optional[int] = None):
        super().__init__(topology)
        n = topology.num_switches
        if root is None:
            root = choose_root(topology)
        if not (0 <= root < n):
            raise ValueError(f"root {root} outside 0..{n - 1}")
        self.root = root
        self.level = bfs_levels(topology, root)

        # Directed state graph over flat state ids (phase * N + switch):
        # _succ[state] lists the legal next states, independent of
        # destination.  Each link gives three state edges: the up traversal
        # and the down traversal from either phase.  _edge_from/_edge_to
        # hold them one row per link, for shortest_path_supports.
        self._succ: List[List[int]] = [[] for _ in range(2 * n)]
        edges = []
        for u, v in topology.links:
            lower, upper = (u, v) if self.is_up(u, v) else (v, u)
            link_edges = ((lower, upper), (upper, n + lower), (n + upper, n + lower))
            for a, b in link_edges:
                self._succ[a].append(b)
            edges.append(link_edges)
        edges = np.array(edges, dtype=np.int64).reshape(-1, 3, 2)
        self._edge_from, self._edge_to = edges[:, :, 0], edges[:, :, 1]

        self._dist: Optional[np.ndarray] = None
        self._states: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # orientation
    # ------------------------------------------------------------------ #

    def is_up(self, frm: int, to: int) -> bool:
        """True when traversing the link ``frm -> to`` is an *up* traversal.

        The up end of a link is the endpoint with the lexicographically
        smaller ``(BFS level, id)``; travelling toward it is travelling up.
        """
        if not self.topology.has_link(frm, to):
            raise ValueError(f"({frm},{to}) is not a link of {self.topology.name}")
        return (self.level[to], to) < (self.level[frm], frm)

    def up_end(self, u: int, v: int) -> int:
        """The endpoint of link ``u-v`` closer to the root."""
        return v if self.is_up(u, v) else u

    # ------------------------------------------------------------------ #
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return "updown"

    def distances(self) -> np.ndarray:
        """All-pairs shortest legal distances (symmetric for up*/down*)."""
        if self._dist is None:
            fwd, _ = self._state_distances()
            n = self.topology.num_switches
            self._dist = np.minimum(fwd[:, :n], fwd[:, n:]).astype(np.int64)
        return self._dist

    def shortest_path_supports(self, src: int) -> np.ndarray:
        n = self.topology.num_switches
        fwd, rest = self._state_distances()
        df = fwd[src]
        total = np.minimum(df[:n], df[n:])
        # Edge column by column keeps the temporaries at (N, L).
        on_path = np.zeros((n, self._edge_from.shape[0]), dtype=bool)
        for col in range(3):
            bv = rest[:, self._edge_to[:, col]]
            on_path |= (bv >= 0) & (df[self._edge_from[:, col]] + 1 + bv
                                    == total[:, None])
        return on_path

    def next_hops(self, current: int, phase: Phase, dst: int) -> Tuple[Hop, ...]:
        if current == dst:
            return ()
        n = self.topology.num_switches
        rest = self._state_distances()[1][dst]
        state = phase * n + current
        here = rest[state]
        if here < 0:
            return ()
        return tuple(sorted((t % n, Phase(t // n)) for t in self._succ[state]
                            if rest[t] == here - 1))

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _state_distances(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(fwd, rest)``, both int32 of shape ``(N, 2N)`` over flat states.

        ``fwd[src, state]`` is the legal distance from the injection state
        ``(src, UP)``, with ``2N`` (longer than any legal path, which visits
        each state at most once) where the state is unreachable.
        ``rest[dst, state]`` is the remaining legal distance from ``state``
        to switch ``dst`` in either phase, ``-1`` when none exists.  Built
        once, from one BFS per state; the full ``(2N, 2N)`` matrix is
        dropped afterwards.
        """
        if self._states is None:
            n = self.topology.num_switches
            far = 2 * n
            full = np.empty((2 * n, 2 * n), dtype=np.int32)
            for state in range(2 * n):
                full[state] = bfs_distances(self._succ, [state])
            full[full < 0] = far
            rest = np.empty((n, 2 * n), dtype=np.int32)
            np.minimum(full[:, :n].T, full[:, n:].T, out=rest)
            rest[rest == far] = -1
            self._states = (full[:n].copy(), rest)
        return self._states


__all__ = ["UpDownRouting", "bfs_levels", "choose_root"]
