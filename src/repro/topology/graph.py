"""The network model shared by every subsystem.

A :class:`Topology` is an immutable undirected graph of switches plus a
fixed number of workstations (hosts) attached to each switch.  Hosts are
numbered ``switch * hosts_per_switch + k`` so that host↔switch conversion
is arithmetic, never a lookup.

Design notes
------------
- Switch-to-switch links are *single* (the paper: "two neighbouring switches
  are connected by a single link"), undirected and unweighted.
- Immutability: all derived structures (adjacency lists, adjacency matrix,
  link index) are built once in ``__init__`` and cached; this lets routing
  and distance computations treat a topology as a value.
- One graph walk: :func:`bfs_distances` answers "how far is every node
  from these sources" over plain adjacency lists.  Topology distances,
  up*/down* routing, fault components and deadlock analysis all call it
  instead of keeping their own traversal loops.
- ``networkx`` interop is provided for tests and visual inspection but no
  core algorithm depends on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Link = Tuple[int, int]


def bfs_distances(adj: Sequence[Sequence[int]],
                  sources: Iterable[int]) -> np.ndarray:
    """Hop count from the nearest of ``sources`` to every node of ``adj``.

    ``adj[u]`` lists the nodes one edge away from node ``u``; edges may be
    directed.  Returns an int32 array with ``-1`` for nodes no source
    reaches.  Every graph walk in the package goes through this one
    function: topology distances, up*/down* state distances, fault
    components and channel-dependency reachability.
    """
    dist = [-1] * len(adj)
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return np.array(dist, dtype=np.int32)


def _normalize_link(u: int, v: int) -> Link:
    if u == v:
        raise ValueError(f"self-link at switch {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Topology:
    """An undirected switch network with hosts attached to each switch.

    Parameters
    ----------
    num_switches:
        Number of switching elements (the paper's "nodes").
    links:
        Iterable of ``(u, v)`` switch pairs.  Order and duplication are
        normalized; duplicates raise (single link between neighbours).
    hosts_per_switch:
        Workstations attached to every switch (paper default: 4).
    switch_ports:
        Total ports per switch (paper default: 8).  The inter-switch degree
        of every switch must fit in ``switch_ports - hosts_per_switch``.
    name:
        Optional human-readable label used in reports.
    """

    def __init__(
        self,
        num_switches: int,
        links: Iterable[Link],
        *,
        hosts_per_switch: int = 4,
        switch_ports: int = 8,
        name: str = "",
    ):
        if num_switches <= 0:
            raise ValueError(f"num_switches must be > 0, got {num_switches}")
        if hosts_per_switch < 0:
            raise ValueError(f"hosts_per_switch must be >= 0, got {hosts_per_switch}")
        if switch_ports < hosts_per_switch:
            raise ValueError(
                f"switch_ports ({switch_ports}) < hosts_per_switch ({hosts_per_switch})"
            )
        self._n = int(num_switches)
        self._hosts_per_switch = int(hosts_per_switch)
        self._switch_ports = int(switch_ports)
        self.name = name or f"topology-{self._n}sw"

        seen = set()
        norm: List[Link] = []
        for u, v in links:
            u, v = int(u), int(v)
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise ValueError(f"link ({u},{v}) references a switch outside 0..{self._n - 1}")
            link = _normalize_link(u, v)
            if link in seen:
                raise ValueError(f"duplicate link {link}; neighbours share a single link")
            seen.add(link)
            norm.append(link)
        norm.sort()
        self._links: Tuple[Link, ...] = tuple(norm)

        adj: List[List[int]] = [[] for _ in range(self._n)]
        for u, v in self._links:
            adj[u].append(v)
            adj[v].append(u)
        max_degree = self._switch_ports - self._hosts_per_switch
        for s, neigh in enumerate(adj):
            if len(neigh) > max_degree:
                raise ValueError(
                    f"switch {s} has degree {len(neigh)} but only "
                    f"{max_degree} inter-switch ports are available"
                )
            neigh.sort()
        self._adj: Tuple[Tuple[int, ...], ...] = tuple(tuple(a) for a in adj)
        self._link_index: Dict[Link, int] = {l: i for i, l in enumerate(self._links)}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_switches(self) -> int:
        return self._n

    @property
    def hosts_per_switch(self) -> int:
        return self._hosts_per_switch

    @property
    def switch_ports(self) -> int:
        return self._switch_ports

    @property
    def num_hosts(self) -> int:
        return self._n * self._hosts_per_switch

    @property
    def links(self) -> Tuple[Link, ...]:
        """All inter-switch links as sorted ``(u, v)`` pairs with ``u < v``."""
        return self._links

    @property
    def num_links(self) -> int:
        return len(self._links)

    def neighbors(self, switch: int) -> Tuple[int, ...]:
        """Switches adjacent to ``switch``, ascending."""
        return self._adj[switch]

    def degree(self, switch: int) -> int:
        """Inter-switch degree (links only; hosts are not counted)."""
        return len(self._adj[switch])

    def open_ports(self, switch: int) -> int:
        """Ports of ``switch`` not used by hosts or links."""
        return self._switch_ports - self._hosts_per_switch - self.degree(switch)

    def has_link(self, u: int, v: int) -> bool:
        """True when switches ``u`` and ``v`` are directly linked."""
        return _normalize_link(u, v) in self._link_index

    def link_id(self, u: int, v: int) -> int:
        """Stable integer id of the (undirected) link ``u-v``."""
        return self._link_index[_normalize_link(u, v)]

    # ------------------------------------------------------------------ #
    # host numbering
    # ------------------------------------------------------------------ #

    def host_switch(self, host: int) -> int:
        """Switch a host hangs off (hosts are numbered switch-major)."""
        if not (0 <= host < self.num_hosts):
            raise ValueError(f"host {host} outside 0..{self.num_hosts - 1}")
        return host // self._hosts_per_switch

    def switch_hosts(self, switch: int) -> range:
        """Hosts attached to ``switch`` as a ``range``."""
        if not (0 <= switch < self._n):
            raise ValueError(f"switch {switch} outside 0..{self._n - 1}")
        base = switch * self._hosts_per_switch
        return range(base, base + self._hosts_per_switch)

    # ------------------------------------------------------------------ #
    # derived structures
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``N×N`` 0/1 adjacency matrix (switches only)."""
        a = np.zeros((self._n, self._n), dtype=np.int64)
        for u, v in self._links:
            a[u, v] = 1
            a[v, u] = 1
        return a

    def laplacian(self) -> np.ndarray:
        """Graph Laplacian ``D - A`` of the switch graph."""
        a = self.adjacency_matrix().astype(float)
        return np.diag(a.sum(axis=1)) - a

    def is_connected(self) -> bool:
        """True when every switch is reachable from switch 0."""
        return bool((bfs_distances(self._adj, [0]) >= 0).all())

    def hop_distances(self) -> np.ndarray:
        """All-pairs hop distances over the raw graph (BFS; no routing).

        Unreachable pairs get ``-1``.  Routing-restricted distances live in
        :mod:`repro.routing`; this is the topological baseline.
        """
        return np.array([bfs_distances(self._adj, [s]) for s in range(self._n)],
                        dtype=np.int64)

    def diameter(self) -> int:
        """Longest shortest path over the raw graph; raises if disconnected."""
        d = self.hop_distances()
        if (d < 0).any():
            raise ValueError("diameter undefined: topology is disconnected")
        return int(d.max())

    # ------------------------------------------------------------------ #
    # interop / dunder
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export the switch graph as a ``networkx.Graph`` (for tests/plots)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self._links)
        return g

    def without_link(self, u: int, v: int) -> "Topology":
        """A copy of this topology with the link ``u-v`` removed.

        Models a link failure (Autonet-style networks reconfigure their
        up*/down* trees after failures).  The result may be disconnected —
        callers decide whether that is fatal for their use.
        """
        key = _normalize_link(u, v)
        if key not in self._link_index:
            raise ValueError(
                f"({u},{v}) is not a link of {self.name}; links are "
                f"{list(self._links)[:8]}{'...' if self.num_links > 8 else ''}"
            )
        links = [l for l in self._links if l != key]
        return Topology(
            self._n,
            links,
            hosts_per_switch=self._hosts_per_switch,
            switch_ports=self._switch_ports,
            name=f"{self.name}-minus-{key[0]}-{key[1]}",
        )

    def without_links(self, links: Iterable[Link]) -> "Topology":
        """A copy of this topology with every link in ``links`` removed.

        Multi-link generalization of :meth:`without_link` (one validation
        pass, one copy).  Raises ``ValueError`` naming the first link that
        is not part of the topology.
        """
        keys = set()
        for u, v in links:
            key = _normalize_link(int(u), int(v))
            if key not in self._link_index:
                raise ValueError(f"({u},{v}) is not a link of {self.name}")
            keys.add(key)
        if not keys:
            return self
        remaining = [l for l in self._links if l not in keys]
        tag = "+".join(f"{a}-{b}" for a, b in sorted(keys))
        return Topology(
            self._n,
            remaining,
            hosts_per_switch=self._hosts_per_switch,
            switch_ports=self._switch_ports,
            name=f"{self.name}-minus-{tag}",
        )

    def without_switch(self, switch: int) -> "Topology":
        """A copy with ``switch`` (and every link touching it) removed.

        Models a switch failure: its hosts disappear with it.  Remaining
        switches are renumbered compactly (ids above ``switch`` shift down
        by one) so the result is a well-formed topology; callers that need
        to keep the original ids should use
        :meth:`induced_subtopology` instead.
        """
        if not (0 <= switch < self._n):
            raise ValueError(
                f"switch {switch} is not a switch of {self.name} "
                f"(valid ids: 0..{self._n - 1})"
            )
        if self._n == 1:
            raise ValueError(
                f"cannot remove switch {switch}: {self.name} has a single switch"
            )
        links = [
            (u - (u > switch), v - (v > switch))
            for u, v in self._links
            if switch not in (u, v)
        ]
        return Topology(
            self._n - 1,
            links,
            hosts_per_switch=self._hosts_per_switch,
            switch_ports=self._switch_ports,
            name=f"{self.name}-minus-sw{switch}",
        )

    def induced_subtopology(self, switches: Iterable[int]) -> "Topology":
        """The subgraph induced by ``switches``, compactly renumbered.

        Switch ``sorted(switches)[k]`` becomes switch ``k`` of the result
        (so the caller's id map is simply the sorted switch list).  Links
        with either endpoint outside the set are dropped.  Raises
        ``ValueError`` on out-of-range or duplicate ids.
        """
        chosen = sorted(int(s) for s in switches)
        if not chosen:
            raise ValueError(f"induced subtopology of {self.name} needs >= 1 switch")
        if len(set(chosen)) != len(chosen):
            raise ValueError(f"duplicate switch ids in {chosen}")
        if chosen[0] < 0 or chosen[-1] >= self._n:
            bad = chosen[0] if chosen[0] < 0 else chosen[-1]
            raise ValueError(
                f"switch {bad} is not a switch of {self.name} "
                f"(valid ids: 0..{self._n - 1})"
            )
        local = {s: i for i, s in enumerate(chosen)}
        links = [
            (local[u], local[v])
            for u, v in self._links
            if u in local and v in local
        ]
        return Topology(
            len(chosen),
            links,
            hosts_per_switch=self._hosts_per_switch,
            switch_ports=self._switch_ports,
            name=f"{self.name}-sub{len(chosen)}",
        )

    def relabeled(self, permutation: Sequence[int]) -> "Topology":
        """Return an isomorphic topology with switches renamed by ``permutation``.

        ``permutation[old] == new``.  Useful for property tests: every
        derived quantity must be equivariant under relabeling.
        """
        perm = list(permutation)
        if sorted(perm) != list(range(self._n)):
            raise ValueError("permutation must be a bijection on switch ids")
        links = [(perm[u], perm[v]) for u, v in self._links]
        return Topology(
            self._n,
            links,
            hosts_per_switch=self._hosts_per_switch,
            switch_ports=self._switch_ports,
            name=f"{self.name}-relabeled",
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._n == other._n
            and self._links == other._links
            and self._hosts_per_switch == other._hosts_per_switch
            and self._switch_ports == other._switch_ports
        )

    def __hash__(self) -> int:
        return hash((self._n, self._links, self._hosts_per_switch, self._switch_ports))

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, switches={self._n}, links={len(self._links)}, "
            f"hosts={self.num_hosts})"
        )


__all__ = ["Topology", "Link", "bfs_distances"]
