"""Tests for exhaustive enumeration / branch-and-bound."""

from typing import Iterator, Sequence

import numpy as np
import pytest

from repro.core.mapping import Partition, random_partition
from repro.search.base import SimilarityObjective
from repro.search.exhaustive import ExhaustiveSearch, count_partitions


def enumerate_partitions(sizes: Sequence[int],
                         num_switches: int) -> Iterator[Partition]:
    """Yield every fixed-size partition exactly once (the brute-force oracle).

    Symmetry breaking: the lowest unassigned switch id is always placed
    into the lowest-indexed *open* cluster among those of each size class
    that are still empty, which canonicalizes label order.
    """
    sizes = [int(s) for s in sizes]
    labels = np.full(num_switches, -2, dtype=np.int64)  # -2 = undecided
    remaining = list(sizes)
    n_unassigned_slots = sum(sizes)

    def rec(next_switch: int, slots_left: int) -> Iterator[Partition]:
        if slots_left == 0:
            final = np.where(labels == -2, -1, labels)
            yield Partition(final)
            return
        if num_switches - next_switch < slots_left:
            return  # not enough switches left to fill the clusters
        s = next_switch
        # Option 1: leave s unassigned (only allowed when the machine is
        # bigger than the workload).
        if num_switches - s > slots_left:
            labels[s] = -1
            yield from rec(s + 1, slots_left)
            labels[s] = -2
        # Option 2: assign s to a cluster with capacity; among empty
        # clusters of equal size only the first is allowed.
        seen_empty_sizes = set()
        for c, cap in enumerate(remaining):
            if cap == 0:
                continue
            if cap == sizes[c]:  # cluster still empty
                if sizes[c] in seen_empty_sizes:
                    continue
                seen_empty_sizes.add(sizes[c])
            labels[s] = c
            remaining[c] -= 1
            yield from rec(s + 1, slots_left - 1)
            remaining[c] += 1
            labels[s] = -2

    yield from rec(0, n_unassigned_slots)


class TestCountPartitions:
    def test_known_counts(self):
        # 4 nodes into 2+2: C(4,2)/2 = 3.
        assert count_partitions([2, 2], 4) == 3
        # 6 into 3+3: C(6,3)/2 = 10.
        assert count_partitions([3, 3], 6) == 10
        # 6 into 2+2+2: 15*6/6... C(6,2)*C(4,2)/3! = 15.
        assert count_partitions([2, 2, 2], 6) == 15
        # 8 into 4+4: C(8,4)/2 = 35.
        assert count_partitions([4, 4], 8) == 35

    def test_unequal_sizes_no_division(self):
        # 5 into 2+3: C(5,2) = 10 (no label symmetry).
        assert count_partitions([2, 3], 5) == 10

    def test_partial_machine(self):
        # choose 2 of 4 for a single cluster: C(4,2) = 6.
        assert count_partitions([2], 4) == 6

    def test_paper_16_4x4(self):
        # 16 into four 4s: 16!/(4!^4 * 4!) = 2627625.
        assert count_partitions([4, 4, 4, 4], 16) == 2_627_625


class TestEnumerate:
    @pytest.mark.parametrize("sizes,n", [
        ([2, 2], 4),
        ([3, 3], 6),
        ([2, 2, 2], 6),
        ([2, 3], 5),
        ([2], 4),
        ([2, 2], 6),
    ])
    def test_enumeration_complete_and_unique(self, sizes, n):
        parts = list(enumerate_partitions(sizes, n))
        keys = {p.canonical_key() for p in parts}
        assert len(parts) == len(keys) == count_partitions(sizes, n)

    def test_all_have_correct_sizes(self):
        for p in enumerate_partitions([2, 3], 6):
            assert p.sizes() == [2, 3]


class TestExhaustiveSearch:
    def test_finds_planted_optimum(self):
        # Two tight blocks: optimum must be the planted partition.
        t = np.full((6, 6), 10.0)
        for block in ((0, 1, 2), (3, 4, 5)):
            for i in block:
                for j in block:
                    t[i, j] = 1.0
        np.fill_diagonal(t, 0.0)
        obj = SimilarityObjective(t, [3, 3])
        res = ExhaustiveSearch().run(obj)
        assert res.optimal is True
        assert set(res.best_partition.clusters()) == {(0, 1, 2), (3, 4, 5)}

    def test_matches_brute_force_min(self, table8):
        obj = SimilarityObjective(table8, [4, 4])
        res = ExhaustiveSearch().run(obj)
        brute = min(
            obj.value(p) for p in enumerate_partitions([4, 4], 8)
        )
        assert res.best_value == pytest.approx(brute)

    def test_max_nodes_guard(self, table16):
        obj = SimilarityObjective(table16, [4, 4, 4, 4])
        with pytest.raises(RuntimeError, match="max_nodes"):
            ExhaustiveSearch(max_nodes=100).run(obj)

    def test_initial_incumbent_accepted(self, table8):
        obj = SimilarityObjective(table8, [4, 4])
        seedp = random_partition([4, 4], 8, seed=1)
        res = ExhaustiveSearch().run(obj, initial=seedp)
        assert res.best_value <= obj.value(seedp) + 1e-12

    def test_partial_machine(self, table8):
        obj = SimilarityObjective(table8, [2, 2])
        res = ExhaustiveSearch().run(obj)
        assert res.best_partition.sizes() == [2, 2]
        assert res.optimal is True
        brute = min(obj.value(p) for p in enumerate_partitions([2, 2], 8))
        assert res.best_value == pytest.approx(brute)
