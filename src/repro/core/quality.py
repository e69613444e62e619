"""The paper's quality functions (Section 4.1).

Given the table of equivalent distances ``T`` and a partition of the
switches into clusters:

- ``F_{A_i}`` — quadratic sum of intracluster distances of cluster ``A_i``
  (eq. 1);
- ``F_G``    — similarity global function: mean intracluster ``T²``
  normalized by the network-wide mean ``T²`` (eq. 2).  ``F_G ≈ 1`` for a
  random mapping, ``→ 0`` for a tight mapping;
- ``D_{A_i}`` — quadratic sum of distances from ``A_i`` to the rest of the
  network (eq. 4);
- ``D_G``    — dissimilarity global function, normalized the same way
  (eq. 5).  ``D_G ≈ 1`` when clusters are no better separated than
  singletons, larger when they are well separated;
- ``C_c = D_G / F_G`` — the clustering coefficient, the paper's a-priori
  predictor of relative network performance.  The scheduling technique
  minimizes ``F_G``, thereby (for fixed sizes) maximizing ``C_c``.

:class:`QualityEvaluator` vectorizes all of this over a fixed table and
additionally provides the O(1) swap delta used by the heuristic searches.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.mapping import Partition, ProcessMapping
from repro.distance.table import DistanceTable
from repro.util.validation import check_square_matrix

TableLike = Union[DistanceTable, np.ndarray]


def _as_squared(table: TableLike) -> np.ndarray:
    if isinstance(table, DistanceTable):
        return table.squared()
    a = check_square_matrix(table, "distance table")
    return a ** 2


def _membership(partition: Partition, n: int) -> np.ndarray:
    """0/1 indicator matrix Z of shape (N, M); unassigned switches are all-zero rows."""
    if partition.num_switches != n:
        raise ValueError(
            f"partition covers {partition.num_switches} switches, table has {n}"
        )
    m = partition.num_clusters
    z = np.zeros((n, m), dtype=float)
    for s, c in enumerate(partition.labels):
        if c >= 0:
            z[s, c] = 1.0
    return z


def clustering_coefficient(table: TableLike, partition: Partition) -> float:
    """``C_c = D_G / F_G``: the intracluster/intercluster bandwidth ratio."""
    return QualityEvaluator(table).clustering_coefficient(partition)


class QualityEvaluator:
    """Vectorized quality functions over one distance table.

    Precomputes ``T²`` and the network-wide normalization so that repeated
    evaluation (the heuristic searches call this millions of times through
    the delta path) stays cheap.
    """

    def __init__(self, table: TableLike):
        self.sq = _as_squared(table)
        self.n = self.sq.shape[0]
        if self.n < 2:
            raise ValueError("quality functions need at least two switches")
        iu = np.triu_indices(self.n, k=1)
        self.norm = float(self.sq[iu].mean())
        if self.norm <= 0:
            raise ValueError(
                "degenerate distance table: all inter-switch distances are zero"
            )
        # Row sums of T² — lets C_c derive the intercluster sum from the
        # cluster load matrix without a second ``sq @ z`` product.
        self._row_sums = self.sq.sum(axis=1)

    # -- raw sums -------------------------------------------------------- #

    def intracluster_sum(self, partition: Partition) -> float:
        """``Σ_i F_{A_i}`` — raw quadratic intracluster sum."""
        z = _membership(partition, self.n)
        return float(np.einsum("im,ij,jm->", z, self.sq, z) / 2.0)

    def intercluster_sum(self, partition: Partition) -> float:
        """``Σ_i D_{A_i}`` — raw quadratic intercluster sum (pairs counted twice)."""
        z = _membership(partition, self.n)
        ones = np.ones(self.n)
        # For each cluster c: z_c' sq (1 - z_c).
        sq_z = self.sq @ z                 # (N, M)
        total_per_node = self.sq @ ones    # (N,)
        inside = np.einsum("im,im->", z, sq_z)
        alls = float((z * total_per_node[:, None]).sum())
        return float(alls - inside)

    # -- normalized functions -------------------------------------------- #

    def similarity(self, partition: Partition) -> float:
        """``F_G`` (eq. 2)."""
        pairs = sum(x * (x - 1) // 2 for x in partition.sizes())
        if pairs == 0:
            raise ValueError(
                "F_G undefined: partition has no intracluster pairs "
                "(all clusters are singletons)"
            )
        return self.intracluster_sum(partition) / pairs / self.norm

    def dissimilarity(self, partition: Partition) -> float:
        """``D_G`` (eq. 5)."""
        count = sum(x * (self.n - x) for x in partition.sizes())
        if count == 0:
            raise ValueError(
                "D_G undefined: partition has no intercluster pairs "
                "(a single cluster covers the whole network)"
            )
        return self.intercluster_sum(partition) / count / self.norm

    def clustering_coefficient(self, partition: Partition) -> float:
        """``C_c = D_G / F_G``, from a single ``sq @ z`` product.

        The two-call path (:meth:`dissimilarity` / :meth:`similarity`)
        forms the cluster load matrix twice; here both quadratic sums are
        derived from one product plus the precomputed row sums of ``T²``:
        ``Σ_i F_{A_i} = ⟨z, sq z⟩ / 2`` and ``Σ_i D_{A_i} = Σ_i r_i -
        ⟨z, sq z⟩`` for assigned rows ``i``.  The equality with the
        two-call path is asserted by the quality test suite.
        """
        pairs = sum(x * (x - 1) // 2 for x in partition.sizes())
        if pairs == 0:
            raise ValueError(
                "F_G undefined: partition has no intracluster pairs "
                "(all clusters are singletons)"
            )
        count = sum(x * (self.n - x) for x in partition.sizes())
        if count == 0:
            raise ValueError(
                "D_G undefined: partition has no intercluster pairs "
                "(a single cluster covers the whole network)"
            )
        z = _membership(partition, self.n)
        inside = float(np.einsum("im,im->", z, self.sq @ z))
        alls = float((z.sum(axis=1) * self._row_sums).sum())
        f_g = (inside / 2.0) / pairs / self.norm
        d_g = (alls - inside) / count / self.norm
        return d_g / f_g

    # -- swap deltas for search ------------------------------------------ #

    def cluster_load_matrix(self, partition: Partition) -> np.ndarray:
        """``G[s, c] = Σ_{x ∈ cluster c} T[s, x]²`` — the search's incremental state."""
        z = _membership(partition, self.n)
        return self.sq @ z

    def swap_delta_raw(
        self, labels: np.ndarray, g: np.ndarray, a: int, b: int
    ) -> float:
        """Change of ``Σ F_{A_i}`` when switches ``a`` and ``b`` swap clusters.

        ``g`` must be the current :meth:`cluster_load_matrix`.  Both
        switches must be assigned and in different clusters.  O(1).
        """
        ca, cb = int(labels[a]), int(labels[b])
        if ca == cb:
            return 0.0
        return float(
            g[b, ca] + g[a, cb] - g[a, ca] - g[b, cb] - 2.0 * self.sq[a, b]
        )

    def apply_swap(self, labels: np.ndarray, g: np.ndarray, a: int, b: int) -> None:
        """In-place update of ``labels`` and ``g`` for the swap ``a ↔ b``. O(N)."""
        ca, cb = int(labels[a]), int(labels[b])
        if ca == cb:
            return
        diff = self.sq[:, b] - self.sq[:, a]
        g[:, ca] += diff
        g[:, cb] -= diff
        labels[a], labels[b] = cb, ca


def weighted_mapping_cost(
    table: TableLike,
    mapping: ProcessMapping,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Quadratic communication cost of a *process-level* mapping.

    Extension beyond the paper's equal-requirements assumption: with ``W``
    a symmetric process×process communication-intensity matrix,

        cost = Σ_{p<q} W[p, q] · T[switch(p), switch(q)]²

    where processes are numbered workload-order (cluster 0 first).  When
    ``weights`` is ``None``, ``W[p, q] = w_p · w_q`` for intracluster pairs
    (using each cluster's ``comm_weight``) and 0 otherwise, which reduces
    to the paper's objective when every weight is 1.
    """
    sq = _as_squared(table)
    workload = mapping.workload
    topo = mapping.topology
    # Flatten process ids and their switches.
    procs = []
    for ci, c in enumerate(workload.clusters):
        for pi in range(c.num_processes):
            procs.append((ci, pi))
    switches = np.array(
        [topo.host_switch(mapping.host_of[key]) for key in procs], dtype=int
    )
    p = len(procs)
    if weights is None:
        w = np.zeros((p, p))
        cluster_ids = np.array([ci for ci, _ in procs])
        wvec = np.array([workload.clusters[ci].comm_weight for ci, _ in procs])
        same = cluster_ids[:, None] == cluster_ids[None, :]
        w = np.where(same, wvec[:, None] * wvec[None, :], 0.0)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (p, p):
            raise ValueError(f"weights must be {p}x{p}, got {w.shape}")
        if not np.allclose(w, w.T):
            raise ValueError("weights must be symmetric")
    np.fill_diagonal(w, 0.0)
    cost = 0.5 * float(np.einsum("pq,pq->", w, sq[np.ix_(switches, switches)]))
    return cost


__all__ = [
    "QualityEvaluator",
    "clustering_coefficient",
    "weighted_mapping_cost",
]
