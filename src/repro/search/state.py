"""Incremental partition state shared by every search method.

A state is a partition with fixed cluster sizes plus the bookkeeping needed
to evaluate a swap of two switches in O(1):

- ``labels``   — cluster index per switch (−1 = unassigned);
- ``g``        — the cluster-load matrix ``G[s, c] = Σ_{x∈c} T[s,x]²``;
- ``raw``      — the current ``Σ_i F_{A_i}`` (unnormalized similarity sum).

``F_G = raw / (intracluster_pairs · norm)`` — the scale factor is constant
for fixed sizes, so searches may rank moves by raw delta and only convert
to ``F_G`` for reporting.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.mapping import Partition
from repro.core.quality import QualityEvaluator


class PartitionState:
    """Mutable search state over a fixed distance table and cluster sizes."""

    def __init__(self, evaluator: QualityEvaluator, partition: Partition):
        sizes = partition.sizes()
        pairs = sum(x * (x - 1) // 2 for x in sizes)
        if pairs == 0:
            raise ValueError("search objective undefined: no intracluster pairs")
        self.evaluator = evaluator
        self.labels = np.array(partition.labels, dtype=np.int64)
        self.g = evaluator.cluster_load_matrix(partition)
        self.raw = evaluator.intracluster_sum(partition)
        self.scale = pairs * evaluator.norm
        self._assigned = np.nonzero(self.labels >= 0)[0]
        self._pair_consts: "Tuple[np.ndarray, np.ndarray] | None" = None

    # -- value ------------------------------------------------------------ #

    def value(self) -> float:
        """Current ``F_G``."""
        return self.raw / self.scale

    def partition(self) -> Partition:
        """Snapshot of the current labels as an immutable Partition."""
        return Partition(self.labels)

    @property
    def assigned(self) -> np.ndarray:
        """Switch ids that belong to some cluster (stable across swaps)."""
        return self._assigned

    # -- moves ------------------------------------------------------------ #

    def swap_delta(self, a: int, b: int) -> float:
        """``F_G`` change if switches ``a`` and ``b`` exchanged clusters. O(1)."""
        return self.evaluator.swap_delta_raw(self.labels, self.g, a, b) / self.scale

    def apply_swap(self, a: int, b: int) -> None:
        """Apply the swap, keeping ``raw``/``g`` consistent. O(N)."""
        delta = self.evaluator.swap_delta_raw(self.labels, self.g, a, b)
        self.evaluator.apply_swap(self.labels, self.g, a, b)
        self.raw += delta

    def candidate_swaps(self) -> Iterator[Tuple[int, int]]:
        """All unordered pairs of assigned switches in different clusters."""
        assigned = self._assigned
        labels = self.labels
        for i in range(assigned.size):
            a = int(assigned[i])
            la = labels[a]
            for j in range(i + 1, assigned.size):
                b = int(assigned[j])
                if labels[b] != la:
                    yield (a, b)

    def best_swap(
        self, forbidden: "set[Tuple[int, int]] | None" = None,
        aspiration_below: float = float("-inf"),
    ) -> Tuple[Tuple[int, int], float] | Tuple[None, float]:
        """The swap with the most negative (or least positive) ``F_G`` delta.

        ``forbidden`` holds tabu pairs; a tabu swap is still considered when
        it would drop the value strictly below ``aspiration_below`` (the
        classical aspiration criterion).  Returns ``(None, 0.0)`` when no
        candidate exists at all.
        """
        pair, delta, _ = self.best_swaps(forbidden, aspiration_below)
        return pair, delta

    def best_swaps(
        self, forbidden: "set[Tuple[int, int]] | None" = None,
        aspiration_below: float = float("-inf"),
    ) -> Tuple[Tuple[int, int] | None, float, float]:
        """One neighbourhood pass: allowed best *and* unrestricted best.

        Returns ``(pair, delta, free_delta)`` where ``pair``/``delta`` are
        the best swap honouring ``forbidden``/aspiration (``(None, 0.0)``
        when every candidate is excluded or none exists) and ``free_delta``
        is the best delta over the *whole* neighbourhood, tabu ignored.
        ``free_delta >= 0`` identifies a genuine local minimum even when the
        tabu list masks the improving move; ``free_delta`` is ``inf`` when
        the neighbourhood is empty.

        The whole neighbourhood is one array expression over the assigned
        switches, in :meth:`swap_delta`'s operation order, so every delta is
        bit-equal to the scalar one; ``argmin`` returns the first minimum in
        :meth:`candidate_swaps` order.
        """
        asg = self._assigned
        if self._pair_consts is None:
            # Fixed with the assigned set, so built once per state and
            # shared with its copies.
            sq2 = self.evaluator.sq[np.ix_(asg, asg)]
            sq2 *= 2.0
            self._pair_consts = (sq2, np.tri(asg.size, dtype=bool))
        sq2, lower = self._pair_consts
        lab = self.labels[asg]
        gx = self.g[asg][:, lab]  # gx[i, j] = G[asg[i], cluster of asg[j]]
        gs = gx.diagonal().copy()
        # In place, in the order of (g[b,ca] + g[a,cb] - g[a,ca] - g[b,cb]
        # - 2 sq[a,b]) / scale.
        deltas = gx.T + gx
        del gx
        deltas -= gs[:, None]
        deltas -= gs[None, :]
        deltas -= sq2
        deltas /= self.scale
        same = lab[:, None] == lab[None, :]
        deltas[same | lower] = np.inf
        free_delta = float(deltas.min())  # two or more switches are assigned
        if forbidden:
            pos = np.full(self.labels.size, -1, dtype=np.int64)
            pos[asg] = np.arange(asg.size)
            fi, fj = pos[np.array(list(forbidden), dtype=np.int64).T]
            ok = (fi >= 0) & (fi < fj)
            fi, fj = fi[ok], fj[ok]
            barred = ~(self.value() + deltas[fi, fj] < aspiration_below)
            deltas[fi[barred], fj[barred]] = np.inf
        i, j = np.unravel_index(np.argmin(deltas), deltas.shape)
        best_delta = float(deltas[i, j])
        if best_delta == np.inf:
            return None, 0.0, free_delta
        return (int(asg[i]), int(asg[j])), best_delta, free_delta

    # -- misc --------------------------------------------------------------#

    def copy(self) -> "PartitionState":
        """Independent deep copy (labels and bookkeeping)."""
        clone = object.__new__(PartitionState)
        clone.evaluator = self.evaluator
        clone.labels = self.labels.copy()
        clone.g = self.g.copy()
        clone.raw = self.raw
        clone.scale = self.scale
        clone._assigned = self._assigned
        clone._pair_consts = self._pair_consts
        return clone

    def recompute(self) -> None:
        """Rebuild ``g``/``raw`` from scratch (defensive; used by tests)."""
        part = self.partition()
        self.g = self.evaluator.cluster_load_matrix(part)
        self.raw = self.evaluator.intracluster_sum(part)


__all__ = ["PartitionState"]
