"""Path helpers the routing tests check the routing interface against."""

from __future__ import annotations

from typing import FrozenSet, List

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.topology.graph import Link


def support_links(routing: RoutingAlgorithm, src: int, dst: int) -> FrozenSet[Link]:
    """Links on at least one shortest legal ``src → dst`` path.

    One row of :meth:`RoutingAlgorithm.shortest_path_supports`, as a set.
    """
    row = routing.shortest_path_supports(src)[dst]
    links = routing.topology.links
    return frozenset(links[k] for k in np.flatnonzero(row))


def shortest_path(routing: RoutingAlgorithm, src: int, dst: int) -> List[int]:
    """One shortest legal path (lowest next hop at each step), inclusive."""
    path = [src]
    current, phase = src, routing.initial_phase()
    while current != dst:
        hops = routing.next_hops(current, phase, dst)
        assert hops, f"no legal continuation from ({current}, {phase.name})"
        assert len(path) <= routing.topology.num_switches, "path does not end"
        current, phase = min(hops)
        path.append(current)
    return path
