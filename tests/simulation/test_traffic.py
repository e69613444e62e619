"""Tests for traffic patterns."""

import random
from collections import Counter

import pytest

from repro.core.mapping import (
    LogicalCluster,
    Workload,
    partition_to_mapping,
    random_partition,
)
from repro.simulation.traffic import (
    IntraClusterTraffic,
    UniformTraffic,
)


@pytest.fixture
def mapping16(topo16, workload16):
    part = random_partition([4] * 4, 16, seed=0)
    return partition_to_mapping(part, workload16, topo16)


class TestUniform:
    def test_never_self(self, topo16):
        t = UniformTraffic(topo16)
        rng = random.Random(0)
        for src in range(0, topo16.num_hosts, 7):
            for _ in range(50):
                assert t.dest_for(src, rng) != src

    def test_covers_all_hosts(self, topo16):
        t = UniformTraffic(topo16)
        rng = random.Random(1)
        seen = {t.dest_for(0, rng) for _ in range(3000)}
        assert seen == set(range(1, topo16.num_hosts))

    def test_active_hosts(self, topo16):
        assert list(UniformTraffic(topo16).active_hosts()) == \
            list(range(topo16.num_hosts))

    def test_needs_two_hosts(self):
        from repro.topology.graph import Topology

        t = Topology(1, [], hosts_per_switch=1, switch_ports=4)
        with pytest.raises(ValueError):
            UniformTraffic(t)


class TestIntraCluster:
    def test_destinations_stay_in_cluster(self, mapping16):
        t = IntraClusterTraffic(mapping16)
        c_of_h = mapping16.cluster_of_host()
        rng = random.Random(2)
        for src in t.active_hosts():
            for _ in range(30):
                dst = t.dest_for(src, rng)
                assert dst != src
                assert c_of_h[dst] == c_of_h[src]

    def test_uniform_within_cluster(self, mapping16):
        t = IntraClusterTraffic(mapping16)
        rng = random.Random(3)
        src = t.active_hosts()[0]
        counts = Counter(t.dest_for(src, rng) for _ in range(6000))
        # 15 possible destinations, each ~400 draws.
        assert len(counts) == 15
        assert min(counts.values()) > 250

    def test_intercluster_fraction(self, mapping16):
        t = IntraClusterTraffic(mapping16, intercluster_fraction=0.5)
        c_of_h = mapping16.cluster_of_host()
        rng = random.Random(4)
        src = t.active_hosts()[0]
        outside = sum(
            c_of_h[t.dest_for(src, rng)] != c_of_h[src] for _ in range(4000)
        )
        assert 0.4 < outside / 4000 < 0.6

    def test_invalid_fraction(self, mapping16):
        with pytest.raises(ValueError):
            IntraClusterTraffic(mapping16, intercluster_fraction=1.5)

    def test_weighted_rate_scale(self, topo16):
        w = Workload([
            LogicalCluster("heavy", 32, comm_weight=3.0),
            LogicalCluster("light", 32, comm_weight=1.0),
        ])
        part = random_partition([8, 8], 16, seed=1)
        mapping = partition_to_mapping(part, w, topo16)
        t = IntraClusterTraffic(mapping, weighted=True)
        heavy_host = mapping.host_of[(0, 0)]
        light_host = mapping.host_of[(1, 0)]
        assert t.rate_scale(heavy_host) == 3.0
        assert t.rate_scale(light_host) == 1.0

    def test_unweighted_rate_scale_is_one(self, mapping16):
        t = IntraClusterTraffic(mapping16)
        assert all(t.rate_scale(h) == 1.0 for h in t.active_hosts())

    def test_single_host_cluster_rejected(self):
        # A cluster with a single host has no intracluster destination.
        from repro.topology.graph import Topology

        tiny = Topology(3, [(0, 1), (1, 2)], hosts_per_switch=1,
                        switch_ports=4)
        w2 = Workload([LogicalCluster("a", 1), LogicalCluster("b", 2)])
        part2 = random_partition([1, 2], 3, seed=0)
        mapping2 = partition_to_mapping(part2, w2, tiny)
        with pytest.raises(ValueError, match="single host"):
            IntraClusterTraffic(mapping2)

