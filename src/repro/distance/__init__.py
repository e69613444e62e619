"""The table of equivalent distances (the paper's communication-cost model).

For a pair of switches ``(i, j)``: keep only the links lying on shortest
legal paths between them (as supplied by the routing algorithm), replace
every link with a unit resistor, and define the *equivalent distance*
``T_ij`` as the equivalent electrical resistance between ``i`` and ``j``.
Parallel shortest paths lower the resistance, so the metric rewards path
diversity as well as proximity — unlike plain hop count.

The resulting table does not satisfy the triangle inequality (it is not a
metric), which is why the paper pairs it with combinatorial search instead
of Euclidean clustering; :mod:`repro.distance.metrics` quantifies this.
"""

from repro.distance.resistance import (
    equivalent_resistance,
    resistance_matrix,
)
from repro.distance.table import DistanceTable, build_distance_table, hop_distance_table
from repro.distance.cache import (
    TableCache,
    cached_distance_table,
    cached_routing_table,
    configure_cache,
    topology_fingerprint,
)
from repro.distance.metrics import (
    triangle_violations,
    distance_hop_correlation,
)

__all__ = [
    "equivalent_resistance",
    "resistance_matrix",
    "DistanceTable",
    "build_distance_table",
    "hop_distance_table",
    "TableCache",
    "cached_distance_table",
    "cached_routing_table",
    "configure_cache",
    "topology_fingerprint",
    "triangle_violations",
    "distance_hop_correlation",
]
