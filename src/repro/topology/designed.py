"""Hand-designed and regular topologies.

:func:`four_rings_topology` rebuilds the "specially designed" 24-switch
network of Figure 4: four interconnected rings of six switches each, used
to test whether the scheduling technique recovers well-defined clusters.
The mesh, torus and hypercube constructors exercise the paper's claim that
the technique "is applicable to both regular and irregular topologies".
"""

from __future__ import annotations

from typing import List

from repro.topology.graph import Link, Topology


def four_rings_topology(
    *,
    rings: int = 4,
    ring_size: int = 6,
    links_between_adjacent_rings: int = 1,
    hosts_per_switch: int = 4,
    switch_ports: int = 8,
) -> Topology:
    """Interconnected rings: the "especially designed" network of Figure 4.

    ``rings`` rings of ``ring_size`` switches each, joined in a cycle of
    rings: ring ``r`` connects to ring ``r+1 (mod rings)`` through
    ``links_between_adjacent_rings`` links at evenly spaced attachment
    points (offset by half a ring on the far side, so inter-ring links do
    not concentrate on one arc).

    The natural clusters are the rings themselves — switches
    ``r*ring_size .. (r+1)*ring_size - 1`` form ring ``r`` — and with the
    default sparse interconnect the scheduling technique recovers them
    exactly, reproducing the paper's Figure 4 observation.  The sparse
    inter-ring bisection is also what makes random mappings collapse in
    Figure 5 (the ~5× throughput gap).
    """
    if rings < 3:
        raise ValueError(f"a cycle of rings needs >= 3 rings, got {rings}")
    if ring_size < 3:
        raise ValueError(f"ring_size must be >= 3, got {ring_size}")
    if not (1 <= links_between_adjacent_rings <= ring_size):
        raise ValueError(
            f"links_between_adjacent_rings must be in 1..{ring_size}, "
            f"got {links_between_adjacent_rings}"
        )
    n = rings * ring_size
    links: List[Link] = []

    def node(r: int, k: int) -> int:
        return r * ring_size + k % ring_size

    for r in range(rings):
        for k in range(ring_size):
            links.append((node(r, k), node(r, k + 1)))

    per_pair = links_between_adjacent_rings
    for r in range(rings):
        nr = (r + 1) % rings
        for i in range(per_pair):
            ka = (i * ring_size) // per_pair
            kb = ka + ring_size // 2
            links.append((node(r, ka), node(nr, kb)))

    return Topology(
        n,
        links,
        hosts_per_switch=hosts_per_switch,
        switch_ports=switch_ports,
        name=f"{rings}x{ring_size}-rings",
    )


def mesh_topology(rows: int, cols: int, *, hosts_per_switch: int = 4,
                  switch_ports: int = 8) -> Topology:
    """A 2-D mesh (no wraparound)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"mesh dimensions must be >= 1, got {rows}x{cols}")
    if rows * cols < 2:
        raise ValueError("mesh needs at least 2 switches")
    links: List[Link] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                links.append((u, u + 1))
            if r + 1 < rows:
                links.append((u, u + cols))
    return Topology(rows * cols, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=switch_ports, name=f"mesh-{rows}x{cols}")


def torus_topology(rows: int, cols: int, *, hosts_per_switch: int = 4,
                   switch_ports: int = 8) -> Topology:
    """A 2-D torus (mesh with wraparound); needs rows, cols >= 3 to stay simple."""
    if rows < 3 or cols < 3:
        raise ValueError(f"torus dimensions must be >= 3 to avoid parallel links, "
                         f"got {rows}x{cols}")
    links: List[Link] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            links.append((u, r * cols + (c + 1) % cols))
            links.append((u, ((r + 1) % rows) * cols + c))
    return Topology(rows * cols, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=switch_ports, name=f"torus-{rows}x{cols}")


def hypercube_topology(dim: int, *, hosts_per_switch: int = 4,
                       switch_ports: int | None = None) -> Topology:
    """A ``dim``-dimensional binary hypercube (degree = dim)."""
    if dim < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {dim}")
    n = 1 << dim
    links = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < (u ^ (1 << b))]
    ports = switch_ports if switch_ports is not None else hosts_per_switch + dim
    return Topology(n, links, hosts_per_switch=hosts_per_switch,
                    switch_ports=ports, name=f"hypercube-{dim}d")


__all__ = [
    "four_rings_topology",
    "mesh_topology",
    "torus_topology",
    "hypercube_topology",
]
