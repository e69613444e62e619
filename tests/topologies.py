"""Small topologies and invariant checks that only the tests use.

The constructors build fixture networks with known structure (a ring has
edge connectivity 2, a star's hub is a cut vertex, a tree has no cycles,
a complete graph has diameter 1); the checks are the structural and
Section 5.1 oracles that the random generator and the designed networks
are tested against.
"""

from __future__ import annotations

from repro.topology.graph import Topology


def ring_topology(n: int, *, hosts_per_switch: int = 4, switch_ports: int = 8) -> Topology:
    """A single cycle of ``n`` switches."""
    if n < 3:
        raise ValueError(f"a ring needs >= 3 switches, got {n}")
    links = [(i, (i + 1) % n) for i in range(n)]
    return Topology(n, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=switch_ports, name=f"ring-{n}")


def complete_topology(n: int, *, hosts_per_switch: int = 4) -> Topology:
    """A fully connected switch network (degree = n-1)."""
    if n < 2:
        raise ValueError(f"complete topology needs >= 2 switches, got {n}")
    links = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Topology(n, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=hosts_per_switch + n - 1, name=f"complete-{n}")


def star_topology(n: int, *, hosts_per_switch: int = 4) -> Topology:
    """Switch 0 at the centre, switches 1..n-1 as leaves."""
    if n < 2:
        raise ValueError(f"star topology needs >= 2 switches, got {n}")
    links = [(0, i) for i in range(1, n)]
    return Topology(n, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=hosts_per_switch + n - 1, name=f"star-{n}")


def binary_tree_topology(levels: int, *, hosts_per_switch: int = 4,
                         switch_ports: int = 8) -> Topology:
    """A complete binary tree with ``levels`` levels (2**levels - 1 switches)."""
    if levels < 1:
        raise ValueError(f"tree needs >= 1 level, got {levels}")
    n = (1 << levels) - 1
    links = [((i - 1) // 2, i) for i in range(1, n)]
    return Topology(n, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=switch_ports, name=f"btree-{levels}")


class TopologyError(ValueError):
    """A topology violates a required invariant."""


def validate_topology(topo: Topology, *, require_connected: bool = True) -> None:
    """Check structural invariants; raise :class:`TopologyError` on failure.

    The :class:`Topology` constructor already rejects malformed inputs
    (self-links, duplicates, port overflow); this re-verifies the derived
    structures and connectivity from the outside.
    """
    n = topo.num_switches
    degree_from_links = [0] * n
    for u, v in topo.links:
        if not (0 <= u < v < n):
            raise TopologyError(f"malformed link ({u},{v})")
        degree_from_links[u] += 1
        degree_from_links[v] += 1
    for s in range(n):
        if topo.degree(s) != degree_from_links[s]:
            raise TopologyError(
                f"adjacency/degree mismatch at switch {s}: "
                f"{topo.degree(s)} vs {degree_from_links[s]}"
            )
        if topo.hosts_per_switch + topo.degree(s) > topo.switch_ports:
            raise TopologyError(f"switch {s} uses more ports than it has")
        for t in topo.neighbors(s):
            if s not in topo.neighbors(t):
                raise TopologyError(f"asymmetric adjacency between {s} and {t}")
    if require_connected and not topo.is_connected():
        raise TopologyError("topology is disconnected")


def check_paper_constraints(topo: Topology, *, degree: int = 3) -> None:
    """Enforce the paper's Section 5.1 setup.

    - exactly 4 workstations per switch,
    - 8-port switches,
    - every switch uses exactly ``degree`` (= 3) inter-switch ports,
    - single link between neighbours (guaranteed by the model),
    - connected network.
    """
    validate_topology(topo, require_connected=True)
    if topo.hosts_per_switch != 4:
        raise TopologyError(
            f"paper setup requires 4 hosts/switch, got {topo.hosts_per_switch}"
        )
    if topo.switch_ports != 8:
        raise TopologyError(f"paper setup requires 8-port switches, got {topo.switch_ports}")
    for s in range(topo.num_switches):
        if topo.degree(s) != degree:
            raise TopologyError(
                f"paper setup requires degree {degree} at every switch; "
                f"switch {s} has degree {topo.degree(s)}"
            )
