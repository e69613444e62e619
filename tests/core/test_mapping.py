"""Tests for workloads, partitions and process mappings."""

import numpy as np
import pytest

from repro.core.mapping import (
    LogicalCluster,
    Partition,
    ProcessMapping,
    Workload,
    partition_to_mapping,
    random_partition,
)


class TestLogicalCluster:
    def test_valid(self):
        c = LogicalCluster("app", 16)
        assert c.num_processes == 16 and c.comm_weight == 1.0

    def test_zero_processes_rejected(self):
        with pytest.raises(ValueError):
            LogicalCluster("app", 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LogicalCluster("app", 4, comm_weight=-1)


class TestWorkload:
    def test_uniform(self):
        w = Workload.uniform(4, 16)
        assert w.num_clusters == 4 and w.total_processes == 64

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Workload([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Workload([LogicalCluster("a", 4), LogicalCluster("a", 4)])

    def test_switch_quota(self, topo16):
        w = Workload.uniform(4, 16)
        assert w.switch_quota(topo16) == [4, 4, 4, 4]

    def test_quota_indivisible_rejected(self, topo16):
        w = Workload([LogicalCluster("a", 6)])  # not a multiple of 4
        with pytest.raises(ValueError, match="multiple"):
            w.switch_quota(topo16)

    def test_quota_overflow_rejected(self, topo16):
        w = Workload([LogicalCluster("a", 4 * 17)])
        with pytest.raises(ValueError, match="switches"):
            w.switch_quota(topo16)

    def test_partial_machine_ok(self, topo16):
        w = Workload.uniform(2, 8)  # 4 switches of 16 used
        assert w.switch_quota(topo16) == [2, 2]

    def test_repr(self):
        assert "app0:8" in repr(Workload.uniform(1, 8))


class TestPartition:
    def test_from_labels(self):
        p = Partition([0, 0, 1, 1])
        assert p.num_clusters == 2
        assert p.clusters() == [(0, 1), (2, 3)]
        assert p.sizes() == [2, 2]

    def test_unassigned_allowed(self):
        p = Partition([0, -1, 0, 1])
        assert p.sizes() == [2, 1]

    def test_non_consecutive_labels_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            Partition([0, 2, 2, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Partition([])

    def test_from_clusters(self):
        p = Partition.from_clusters([(5, 6), (0, 1)], 8)
        assert p.labels[5] == 0 and p.labels[0] == 1
        assert p.labels[7] == -1

    def test_from_clusters_overlap_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            Partition.from_clusters([(0, 1), (1, 2)], 4)

    def test_from_clusters_range_checked(self):
        with pytest.raises(ValueError):
            Partition.from_clusters([(0, 9)], 4)

    def test_canonical_key_label_invariant(self):
        a = Partition([0, 0, 1, 1])
        b = Partition([1, 1, 0, 0])
        assert a.canonical_key() == b.canonical_key()
        assert a == b and hash(a) == hash(b)

    def test_inequality(self):
        assert Partition([0, 0, 1, 1]) != Partition([0, 1, 0, 1])

    def test_with_swap(self):
        p = Partition([0, 0, 1, 1])
        q = p.with_swap(1, 2)
        assert q.clusters() == [(0, 2), (1, 3)]
        # original untouched
        assert p.clusters() == [(0, 1), (2, 3)]

    def test_labels_readonly(self):
        p = Partition([0, 1])
        with pytest.raises(ValueError):
            p.labels[0] = 1

    def test_repr(self):
        assert "(0,1)" in repr(Partition([0, 0]))


class TestRandomPartition:
    def test_sizes_respected(self):
        p = random_partition([4, 4, 4, 4], 16, seed=0)
        assert p.sizes() == [4, 4, 4, 4]

    def test_partial(self):
        p = random_partition([2, 3], 10, seed=1)
        assert p.sizes() == [2, 3]
        assert (p.labels == -1).sum() == 5

    def test_reproducible(self):
        a = random_partition([4, 4], 8, seed=5)
        b = random_partition([4, 4], 8, seed=5)
        assert (a.labels == b.labels).all()

    def test_varies_with_seed(self):
        keys = {random_partition([4, 4], 8, seed=s).canonical_key()
                for s in range(20)}
        assert len(keys) > 1

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            random_partition([5, 5], 8)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            random_partition([0, 4], 8)

    def test_uniformity_smoke(self):
        # Each switch should land in cluster 0 roughly equally often.
        counts = np.zeros(8)
        trials = 400
        for s in range(trials):
            p = random_partition([4, 4], 8, seed=s)
            counts += (p.labels == 0)
        assert (counts / trials > 0.3).all() and (counts / trials < 0.7).all()


class TestProcessMapping:
    def test_partition_roundtrip(self, topo16, workload16):
        part = random_partition([4, 4, 4, 4], 16, seed=3)
        mapping = partition_to_mapping(part, workload16, topo16)
        clusters = part.clusters()
        for (ci, _pi), host in mapping.host_of.items():
            assert topo16.host_switch(host) in clusters[ci]

    def test_validate_complete(self, topo16, workload16):
        part = random_partition([4, 4, 4, 4], 16, seed=3)
        mapping = partition_to_mapping(part, workload16, topo16)
        mapping.validate()

    def test_one_process_per_host(self, topo16, workload16):
        part = random_partition([4, 4, 4, 4], 16, seed=4)
        mapping = partition_to_mapping(part, workload16, topo16)
        hosts = list(mapping.host_of.values())
        assert len(set(hosts)) == len(hosts) == 64

    def test_capacity_mismatch_rejected(self, topo16):
        w = Workload.uniform(4, 16)
        bad = random_partition([5, 4, 4, 3], 16, seed=0)  # sizes don't match
        with pytest.raises(ValueError):
            partition_to_mapping(bad, w, topo16)

    def test_cluster_count_mismatch_rejected(self, topo16):
        w = Workload.uniform(3, 16)
        part = random_partition([4, 4, 4, 4], 16, seed=0)
        with pytest.raises(ValueError, match="clusters"):
            partition_to_mapping(part, w, topo16)

    def test_incomplete_mapping_rejected(self, topo16, workload16):
        m = ProcessMapping(workload16, topo16)
        with pytest.raises(ValueError, match="incomplete"):
            m.validate()

    def test_cluster_of_host(self, topo16, workload16):
        part = random_partition([4, 4, 4, 4], 16, seed=3)
        mapping = partition_to_mapping(part, workload16, topo16)
        c_of_h = mapping.cluster_of_host()
        assert len(c_of_h) == 64
        for (ci, _pi), h in mapping.host_of.items():
            assert c_of_h[h] == ci
