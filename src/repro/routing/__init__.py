"""Routing algorithms for switch-based networks.

The paper's distance model is explicitly routing-aware: only links on
shortest paths *supplied by the routing algorithm* enter the equivalent
resistance computation, and the motivating example is the up*/down* scheme
of Autonet, which forbids some minimal paths and concentrates traffic near
the spanning-tree root.

This package provides:

- :class:`~repro.routing.updown.UpDownRouting` — up*/down* routing built on
  a BFS spanning tree with (level, id) link orientation;
- :class:`~repro.routing.minimal.MinimalRouting` — unrestricted shortest
  path routing, the baseline the model must distinguish from;
- :class:`~repro.routing.tables.RoutingTable` — per-destination next-hop
  tables consumed by the flit-level simulator;
- :mod:`~repro.routing.deadlock` — channel-dependency-graph analysis used
  to verify that up*/down* tables are deadlock-free.
"""

from repro.routing.base import Phase, RoutingAlgorithm
from repro.routing.updown import UpDownRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.tables import RoutingTable
from repro.routing.deadlock import channel_dependency_graph, is_deadlock_free

__all__ = [
    "Phase",
    "RoutingAlgorithm",
    "UpDownRouting",
    "MinimalRouting",
    "RoutingTable",
    "channel_dependency_graph",
    "is_deadlock_free",
]
