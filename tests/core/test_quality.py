"""Tests for the paper's quality functions (eqs. 1-5 and C_c)."""

import numpy as np
import pytest

from repro.core.mapping import Partition, Workload, partition_to_mapping, random_partition
from repro.core.quality import (
    QualityEvaluator,
    clustering_coefficient,
    weighted_mapping_cost,
)


@pytest.fixture
def tiny_table():
    """4 nodes: two tight pairs (0,1) and (2,3), far from each other."""
    t = np.array([
        [0, 1, 5, 5],
        [1, 0, 5, 5],
        [5, 5, 0, 1],
        [5, 5, 1, 0],
    ], dtype=float)
    return t


class TestClusterFunctions:
    def test_cluster_similarity_eq1(self, tiny_table):
        ev = QualityEvaluator(tiny_table)
        # F_A for cluster {0,1}: single pair at distance 1 -> 1^2 = 1.
        assert ev.intracluster_sum(Partition([0, 0, -1, -1])) == 1.0
        # Cluster {0,2}: distance 5 -> 25.
        assert ev.intracluster_sum(Partition([0, -1, 0, -1])) == 25.0
        # Three nodes {0,1,2}: 1 + 25 + 25.
        assert ev.intracluster_sum(Partition([0, 0, 0, -1])) == 51.0

    def test_cluster_similarity_singleton(self, tiny_table):
        ev = QualityEvaluator(tiny_table)
        assert ev.intracluster_sum(Partition([-1, -1, -1, 0])) == 0.0

    def test_cluster_dissimilarity_eq4(self, tiny_table):
        ev = QualityEvaluator(tiny_table)
        # D_A0 = sum of squared distances from {0,1} to {2,3} = 4 * 25.
        assert ev.intercluster_sum(Partition([0, 0, -1, -1])) == 100.0
        assert ev.intercluster_sum(Partition([0, 0, 1, 1])) == 200.0


class TestGlobalFunctions:
    def test_good_partition_f_below_1(self, tiny_table):
        good = Partition([0, 0, 1, 1])
        bad = Partition([0, 1, 0, 1])
        f_good = QualityEvaluator(tiny_table).similarity(good)
        f_bad = QualityEvaluator(tiny_table).similarity(bad)
        assert f_good < 1.0 < f_bad
        # Closed form: norm = (1+25*4+1)/6 = 17.67; F numerator good: (1+1)/2 pairs...
        # good: sum F_Ai = 1 + 1 = 2 over 2 pairs = 1; F_G = 1 / norm.
        norm = (1 + 1 + 25 * 4) / 6
        assert f_good == pytest.approx(1.0 / norm)
        assert f_bad == pytest.approx(25.0 / norm)

    def test_d_g_eq5_closed_form(self, tiny_table):
        good = Partition([0, 0, 1, 1])
        norm = (1 + 1 + 25 * 4) / 6
        # sum D_Ai = 200, intercluster count = 2*(4-2)*2 = 8.
        assert QualityEvaluator(tiny_table).dissimilarity(good) == pytest.approx(
            (200 / 8) / norm
        )

    def test_c_c_is_ratio(self, tiny_table):
        p = Partition([0, 0, 1, 1])
        ev = QualityEvaluator(tiny_table)
        assert clustering_coefficient(tiny_table, p) == pytest.approx(
            ev.dissimilarity(p) / ev.similarity(p)
        )

    def test_c_c_single_pass_matches_two_call_path(self, table16):
        # clustering_coefficient derives both quadratic sums from one
        # ``sq @ z`` product; it must agree with the explicit
        # dissimilarity/similarity composition on every partition.
        ev = QualityEvaluator(table16)
        for s in range(100):
            p = random_partition([4] * 4, 16, seed=s)
            assert ev.clustering_coefficient(p) == pytest.approx(
                ev.dissimilarity(p) / ev.similarity(p), rel=1e-12
            )

    def test_c_c_single_pass_uneven_clusters(self, table16):
        ev = QualityEvaluator(table16)
        for s in range(50):
            p = random_partition([2, 3, 5, 6], 16, seed=1000 + s)
            assert ev.clustering_coefficient(p) == pytest.approx(
                ev.dissimilarity(p) / ev.similarity(p), rel=1e-12
            )

    def test_c_c_single_pass_error_messages(self, tiny_table):
        ev = QualityEvaluator(tiny_table)
        with pytest.raises(ValueError, match="F_G undefined"):
            ev.clustering_coefficient(Partition([0, 1, 2, 3]))
        with pytest.raises(ValueError, match="D_G undefined"):
            ev.clustering_coefficient(Partition([0, 0, 0, 0]))

    def test_all_singletons_f_undefined(self, tiny_table):
        p = Partition([0, 1, 2, 3])
        with pytest.raises(ValueError, match="F_G undefined"):
            QualityEvaluator(tiny_table).similarity(p)

    def test_single_full_cluster_d_undefined(self, tiny_table):
        p = Partition([0, 0, 0, 0])
        with pytest.raises(ValueError, match="D_G undefined"):
            QualityEvaluator(tiny_table).dissimilarity(p)

    def test_random_mapping_f_near_1(self, table16):
        # E[F_G] over random partitions is exactly 1 by construction.
        ev = QualityEvaluator(table16)
        vals = [
            ev.similarity(random_partition([4] * 4, 16, seed=s))
            for s in range(200)
        ]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)

    def test_random_mapping_d_near_1(self, table16):
        ev = QualityEvaluator(table16)
        vals = [
            ev.dissimilarity(random_partition([4] * 4, 16, seed=s))
            for s in range(200)
        ]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.02)

    def test_label_permutation_invariance(self, table16):
        p = random_partition([4] * 4, 16, seed=9)
        relabeled = Partition((p.labels + 1) % 4)
        ev = QualityEvaluator(table16)
        assert ev.similarity(p) == pytest.approx(ev.similarity(relabeled))
        assert ev.dissimilarity(p) == pytest.approx(ev.dissimilarity(relabeled))

    def test_accepts_distance_table_object(self, table16):
        p = random_partition([4] * 4, 16, seed=1)
        assert QualityEvaluator(table16).similarity(p) == pytest.approx(
            QualityEvaluator(table16.values).similarity(p)
        )


class TestEvaluator:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            QualityEvaluator(np.zeros((1, 1)))

    def test_degenerate_zero_table_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            QualityEvaluator(np.zeros((4, 4)))

    def test_intracluster_sum_matches_bruteforce(self, table16):
        ev = QualityEvaluator(table16)
        p = random_partition([4] * 4, 16, seed=11)
        sq = table16.squared()
        brute = sum(
            sq[i, j]
            for members in p.clusters()
            for ai, i in enumerate(members)
            for j in members[ai + 1:]
        )
        assert ev.intracluster_sum(p) == pytest.approx(brute)

    def test_intercluster_sum_matches_bruteforce(self, table16):
        ev = QualityEvaluator(table16)
        p = random_partition([4] * 4, 16, seed=12)
        sq = table16.squared()
        labels = p.labels
        brute = sum(
            sq[i, j]
            for i in range(16)
            for j in range(16)
            if labels[i] >= 0 and i != j and labels[j] != labels[i]
        )
        assert ev.intercluster_sum(p) == pytest.approx(brute)

    def test_partition_size_mismatch(self, table16):
        with pytest.raises(ValueError):
            QualityEvaluator(table16).similarity(Partition([0, 0]))


class TestSwapDelta:
    def test_delta_matches_recompute(self, table16):
        ev = QualityEvaluator(table16)
        p = random_partition([4] * 4, 16, seed=13)
        labels = np.array(p.labels)
        g = ev.cluster_load_matrix(p)
        base = ev.intracluster_sum(p)
        for a in range(16):
            for b in range(a + 1, 16):
                if labels[a] == labels[b]:
                    continue
                delta = ev.swap_delta_raw(labels, g, a, b)
                swapped = p.with_swap(a, b)
                assert base + delta == pytest.approx(
                    ev.intracluster_sum(swapped)
                ), f"swap ({a},{b})"

    def test_same_cluster_swap_is_noop(self, table16):
        ev = QualityEvaluator(table16)
        p = random_partition([4] * 4, 16, seed=14)
        labels = np.array(p.labels)
        g = ev.cluster_load_matrix(p)
        members = p.clusters()[0]
        assert ev.swap_delta_raw(labels, g, members[0], members[1]) == 0.0

    def test_apply_swap_consistency(self, table16):
        ev = QualityEvaluator(table16)
        p = random_partition([4] * 4, 16, seed=15)
        labels = np.array(p.labels)
        g = ev.cluster_load_matrix(p)
        # Apply a chain of swaps and verify g stays consistent.
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b = rng.integers(0, 16, size=2)
            if labels[a] == labels[b]:
                continue
            ev.apply_swap(labels, g, int(a), int(b))
        fresh = ev.cluster_load_matrix(Partition(labels))
        assert np.allclose(g, fresh)


class TestWeightedCost:
    def test_reduces_to_paper_objective(self, topo16, table16, workload16):
        # With unit weights, the weighted cost equals the raw intracluster
        # sum expanded to the process level: each switch pair (distance T)
        # hosts 4x4 process pairs, and same-switch pairs contribute 0.
        part = random_partition([4] * 4, 16, seed=20)
        mapping = partition_to_mapping(part, workload16, topo16)
        cost = weighted_mapping_cost(table16, mapping)
        ev = QualityEvaluator(table16)
        assert cost == pytest.approx(16 * ev.intracluster_sum(part))

    def test_weight_scaling(self, topo16, table16):
        from repro.core.mapping import LogicalCluster

        w = Workload([
            LogicalCluster("a", 32, comm_weight=2.0),
            LogicalCluster("b", 32, comm_weight=1.0),
        ])
        part = random_partition([8, 8], 16, seed=21)
        mapping = partition_to_mapping(part, w, topo16)
        cost = weighted_mapping_cost(table16, mapping)
        assert cost > 0
        # Doubling one cluster's weight quadruples its pair weights; the
        # total must exceed the unweighted equivalent.
        w_unit = Workload.uniform(2, 32)
        mapping_unit = partition_to_mapping(part, w_unit, topo16)
        assert cost > weighted_mapping_cost(table16, mapping_unit)

    def test_explicit_weights_validated(self, topo16, table16, workload16):
        part = random_partition([4] * 4, 16, seed=22)
        mapping = partition_to_mapping(part, workload16, topo16)
        with pytest.raises(ValueError, match="weights"):
            weighted_mapping_cost(table16, mapping, weights=np.ones((3, 3)))

    def test_asymmetric_weights_rejected(self, topo16, table16, workload16):
        part = random_partition([4] * 4, 16, seed=23)
        mapping = partition_to_mapping(part, workload16, topo16)
        w = np.ones((64, 64))
        w[0, 1] = 2.0
        with pytest.raises(ValueError, match="symmetric"):
            weighted_mapping_cost(table16, mapping, weights=w)
