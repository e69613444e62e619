"""The table of equivalent distances ``T_N``.

:func:`build_distance_table` implements the model in Section 3 of the
paper: per switch pair, take the shortest-legal-path link support from the
routing algorithm and measure the equivalent resistance across it.  The
routing gives the supports one source at a time, and one streaming solve
stacks the resulting networks by size across all sources.
:class:`DistanceTable` wraps the resulting ``N×N`` matrix with the derived
quantities the quality functions need.
"""

from __future__ import annotations


import numpy as np

from repro.distance.resistance import table_resistances
from repro.obs import trace as _trace
from repro.routing.base import RoutingAlgorithm
from repro.util.validation import check_square_matrix


class DistanceTable:
    """An ``N×N`` table of inter-switch communication-cost distances.

    Invariants enforced at construction: square, zero diagonal,
    non-negative entries.  Symmetry is *not* required by the interface
    (some routing functions are asymmetric) but holds for the tables this
    library builds, and the quality functions only read the upper triangle.
    """

    def __init__(self, values: np.ndarray, *, kind: str = "equivalent",
                 name: str = ""):
        a = check_square_matrix(values, "distance table")
        if not np.allclose(np.diag(a), 0.0, atol=1e-12):
            raise ValueError("distance table diagonal must be zero")
        if (a < -1e-12).any():
            raise ValueError("distance table entries must be non-negative")
        self.values = np.clip(a, 0.0, None)
        self.values.setflags(write=False)
        self.kind = kind
        self.name = name or f"T-{a.shape[0]}"

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, key) -> float:
        return self.values[key]

    def squared(self) -> np.ndarray:
        """Element-wise square ``T_ij²`` — the quantity the quality functions sum."""
        return self.values ** 2

    def quadratic_mean_squared(self) -> float:
        """Mean of ``T_ij²`` over unordered pairs ``i < j``.

        This is the normalization denominator shared by the paper's
        similarity and dissimilarity global functions (the "quadratic
        average value of all of the distances between the network nodes").
        """
        n = self.num_nodes
        if n < 2:
            return 0.0
        sq = self.squared()
        iu = np.triu_indices(n, k=1)
        return float(sq[iu].mean())

    def is_symmetric(self, atol: float = 1e-9) -> bool:
        """True when the table equals its transpose within ``atol``."""
        return bool(np.allclose(self.values, self.values.T, atol=atol))

    def to_dict(self) -> dict:
        """Serializable representation (used by example scripts to cache tables)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DistanceTable":
        return cls(np.asarray(d["values"], dtype=float), kind=d.get("kind", "equivalent"),
                   name=d.get("name", ""))

    def __repr__(self) -> str:
        return f"DistanceTable(name={self.name!r}, kind={self.kind!r}, n={self.num_nodes})"


def build_distance_table(routing: RoutingAlgorithm) -> DistanceTable:
    """Build the paper's table of equivalent distances for a routed topology.

    For each unordered pair ``(i, j)``: take the links on shortest legal
    ``i → j`` paths, treat each as a 1 Ω resistor, and record the equivalent
    resistance.  With a single shortest path of ``h`` hops this degenerates
    to ``h``; with parallel shortest paths it drops below ``h``.
    """
    topo = routing.topology
    n = topo.num_switches
    ends = np.array(topo.links, dtype=np.int64).reshape(-1, 2)
    with _trace.span("distance.table", switches=n, pairs=n * (n - 1) // 2):
        t = table_resistances(n, ends, (
            (i, np.arange(i + 1, n), routing.shortest_path_supports(i)[i + 1:])
            for i in range(n - 1)))
    return DistanceTable(t, kind="equivalent", name=f"T-{routing.name}-{topo.name}")


def hop_distance_table(routing: RoutingAlgorithm) -> DistanceTable:
    """Plain legal hop distances as a :class:`DistanceTable`.

    The ablation baseline: what the quality functions and the Tabu search
    see when the resistance model is replaced by hop count.
    """
    d = routing.distances().astype(float)
    d = 0.5 * (d + d.T)  # symmetrize; equal for the algorithms shipped here
    return DistanceTable(d, kind="hops", name=f"H-{routing.name}-{routing.topology.name}")


__all__ = ["DistanceTable", "build_distance_table", "hop_distance_table"]
