"""Exhaustive (branch-and-bound) enumeration of fixed-size partitions.

The optimality yardstick of Section 4.2: "for small size networks (up to 16
switches) the minimum obtained by [Tabu] was the same value ... obtained
with an exhaustive search".  Enumeration breaks the label-permutation
symmetry between equal-size clusters (so each set partition is visited
once) and prunes on the partial intracluster cost, which is monotone
non-decreasing as switches are assigned.
"""

from __future__ import annotations

from math import comb, factorial
from typing import List, Optional, Sequence

import numpy as np

from repro.core.mapping import Partition
from repro.search.base import SearchMethod, SearchResult, SimilarityObjective
from repro.util.rng import SeedLike


def count_partitions(sizes: Sequence[int], num_switches: int) -> int:
    """Number of distinct partitions of ``num_switches`` ids into clusters of
    the given sizes (unordered among equal-size clusters)."""
    total = 1
    remaining = num_switches
    for s in sizes:
        total *= comb(remaining, s)
        remaining -= s
    from collections import Counter

    for _size, times in Counter(sizes).items():
        total //= factorial(times)
    return total


class ExhaustiveSearch(SearchMethod):
    """Branch-and-bound over all fixed-size partitions.

    Exact, with cost-based pruning: a partial assignment's intracluster sum
    only grows, so any prefix already at or above the incumbent is cut.
    ``max_nodes`` guards against accidental use on large instances (the
    16-switch, 4×4 space has ~2.6M partitions; beyond that the paper itself
    gave up on exhaustive search).
    """

    name = "exhaustive"

    def __init__(self, *, max_nodes: Optional[int] = 50_000_000):
        self.max_nodes = max_nodes

    def run(self, objective: SimilarityObjective, seed: SeedLike = None,
            initial: Optional[Partition] = None) -> SearchResult:
        sizes = objective.sizes
        n = objective.num_switches
        sq = objective.evaluator.sq
        pairs = sum(x * (x - 1) // 2 for x in sizes)
        scale = pairs * objective.evaluator.norm

        best_raw = float("inf")
        best_labels: Optional[np.ndarray] = None
        if initial is not None:
            best_labels = np.array(initial.labels)
            best_raw = objective.evaluator.intracluster_sum(initial)

        labels = np.full(n, -2, dtype=np.int64)
        remaining = list(sizes)
        members: List[List[int]] = [[] for _ in sizes]
        nodes_visited = 0
        slots_total = sum(sizes)

        def rec(s: int, slots_left: int, raw: float) -> None:
            nonlocal best_raw, best_labels, nodes_visited
            nodes_visited += 1
            if self.max_nodes is not None and nodes_visited > self.max_nodes:
                raise RuntimeError(
                    f"exhaustive search exceeded max_nodes={self.max_nodes}; "
                    "use a heuristic method for this instance size"
                )
            if raw >= best_raw:
                return  # prune: cost can only grow
            if slots_left == 0:
                best_raw = raw
                best_labels = np.where(labels == -2, -1, labels).copy()
                return
            if n - s < slots_left:
                return
            if n - s > slots_left:
                labels[s] = -1
                rec(s + 1, slots_left, raw)
                labels[s] = -2
            seen_empty_sizes = set()
            for c, cap in enumerate(remaining):
                if cap == 0:
                    continue
                if cap == sizes[c]:
                    if sizes[c] in seen_empty_sizes:
                        continue
                    seen_empty_sizes.add(sizes[c])
                added = sum(sq[s, x] for x in members[c])
                labels[s] = c
                remaining[c] -= 1
                members[c].append(s)
                rec(s + 1, slots_left - 1, raw + added)
                members[c].pop()
                remaining[c] += 1
                labels[s] = -2

        rec(0, slots_total, 0.0)
        if best_labels is None:
            raise RuntimeError("exhaustive search found no feasible partition")
        best_partition = Partition(best_labels)
        return SearchResult(
            best_partition=best_partition,
            best_value=best_raw / scale,
            method=self.name,
            iterations=nodes_visited,
            evaluations=nodes_visited,
            optimal=True,
            meta={"nodes_visited": nodes_visited},
        )


__all__ = ["ExhaustiveSearch", "count_partitions"]
