"""Diagnostics on distance tables.

The paper stresses two structural facts about the table of equivalent
distances: (1) it violates the triangle inequality, so it is not a metric
and Euclidean clustering does not apply; (2) it is strongly correlated with
network performance.  These helpers quantify both and support the ablation
that compares the equivalent-distance model against plain hop counts.
"""

from __future__ import annotations


import numpy as np

from repro.distance.table import DistanceTable
from repro.util.stats import pearson


def triangle_violations(table: DistanceTable, atol: float = 1e-9) -> int:
    """Count ordered triples ``(i, j, k)`` with ``T_ik > T_ij + T_jk + atol``.

    Nonzero counts confirm the table is not a metric; hop-count tables
    always return 0.
    """
    t = table.values
    n = table.num_nodes
    count = 0
    for j in range(n):
        # T_ij + T_jk for all i,k via broadcasting.
        via_j = t[:, j][:, None] + t[j, :][None, :]
        viol = t > via_j + atol
        # Exclude degenerate triples with repeated nodes.
        viol[np.arange(n), np.arange(n)] = False
        viol[j, :] = False
        viol[:, j] = False
        count += int(viol.sum())
    return count


def distance_hop_correlation(table: DistanceTable, hops: DistanceTable) -> float:
    """Pearson correlation between two tables over unordered pairs.

    Near 1 means the resistance model adds little over hop count for this
    topology (few parallel shortest paths); materially below 1 means the
    model is distinguishing path-diversity that hop count cannot see.
    """
    if table.num_nodes != hops.num_nodes:
        raise ValueError(
            f"table size mismatch: {table.num_nodes} vs {hops.num_nodes}"
        )
    iu = np.triu_indices(table.num_nodes, k=1)
    return pearson(table.values[iu], hops.values[iu])


__all__ = ["triangle_violations", "distance_hop_correlation"]
