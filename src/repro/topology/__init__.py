"""Switch-based network topologies.

The paper evaluates randomly generated *irregular* topologies built from
8-port switches: 4 ports host workstations, 3 ports connect to neighbouring
switches and 1 port is left open.  This package provides:

- :class:`~repro.topology.graph.Topology` — the immutable network model used
  by every other subsystem (routing, distance, simulation);
- :func:`~repro.topology.irregular.random_irregular_topology` — the paper's
  random generator (connected, simple, fixed inter-switch degree);
- :mod:`~repro.topology.designed` — the specially designed 24-switch
  four-ring network of Figure 4 plus regular topologies (mesh, torus,
  hypercube) used to exercise the claim that the technique applies to
  regular networks as well.
"""

from repro.topology.graph import Topology, Link
from repro.topology.irregular import random_irregular_topology
from repro.topology.designed import (
    four_rings_topology,
    mesh_topology,
    torus_topology,
    hypercube_topology,
)
from repro.topology.metrics import (
    average_distance,
    bisection_width,
    edge_connectivity,
    path_diversity,
)

__all__ = [
    "Topology",
    "Link",
    "random_irregular_topology",
    "four_rings_topology",
    "mesh_topology",
    "torus_topology",
    "hypercube_topology",
    "average_distance",
    "bisection_width",
    "edge_connectivity",
    "path_diversity",
]
