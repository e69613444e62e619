"""Tests for classical topology metrics."""

import networkx as nx
import pytest

from repro.topology.designed import hypercube_topology, mesh_topology
from repro.topology.graph import Topology
from repro.topology.metrics import (
    average_distance,
    bisection_is_exact,
    bisection_width,
    degree_stats,
    edge_connectivity,
    path_diversity,
    summary,
)
from tests.topologies import (
    binary_tree_topology,
    complete_topology,
    ring_topology,
    star_topology,
)


class TestAverageDistance:
    def test_complete_graph(self):
        assert average_distance(complete_topology(5)) == pytest.approx(1.0)

    def test_ring(self):
        # Ring of 4: distances 1,2,1 from each node -> mean 4/3.
        assert average_distance(ring_topology(4)) == pytest.approx(4 / 3)

    def test_disconnected_rejected(self):
        t = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            average_distance(t)


class TestDegreeStats:
    def test_star(self):
        s = degree_stats(star_topology(5))
        assert s == {"min": 1.0, "max": 4.0, "mean": 8 / 5}


class TestBisection:
    def test_ring_is_two(self):
        assert bisection_width(ring_topology(8)) == 2

    def test_star_balanced_cut(self):
        # Any balanced cut of a star cuts the leaves on the far side: 2 or 3.
        assert bisection_width(star_topology(6)) == 3

    def test_hypercube(self):
        # d-cube bisection = 2^(d-1).
        assert bisection_width(hypercube_topology(3)) == 4

    def test_mesh(self):
        assert bisection_width(mesh_topology(4, 4)) == 4

    def test_exactness_flag(self, topo16, topo24):
        assert bisection_is_exact(topo16)
        assert not bisection_is_exact(topo24)

    def test_sampled_upper_bound(self, topo24):
        # Sampled estimate must be a valid cut (>= true min, <= all links).
        est = bisection_width(topo24, samples=300)
        assert 1 <= est <= topo24.num_links

    def test_single_switch_rejected(self):
        with pytest.raises(ValueError):
            bisection_width(Topology(1, []))


class TestEdgeConnectivity:
    def test_matches_networkx(self, topo16):
        ours = edge_connectivity(topo16)
        theirs = nx.edge_connectivity(topo16.to_networkx())
        assert ours == theirs

    def test_ring(self):
        assert edge_connectivity(ring_topology(6)) == 2

    def test_star(self):
        assert edge_connectivity(star_topology(5)) == 1

    def test_disconnected_zero(self):
        assert edge_connectivity(Topology(4, [(0, 1), (2, 3)])) == 0


class TestPathDiversity:
    def test_tree_has_unit_diversity(self):
        assert path_diversity(binary_tree_topology(3)) == pytest.approx(1.0)

    def test_hypercube_exceeds_tree(self):
        assert path_diversity(hypercube_topology(3)) > 1.2

    def test_complete_graph_high(self):
        assert path_diversity(complete_topology(5)) > 1.5


class TestSummary:
    def test_all_keys_present(self, topo16):
        s = summary(topo16)
        for key in ("switches", "links", "diameter", "average_distance",
                    "degree", "bisection_width", "edge_connectivity",
                    "path_diversity"):
            assert key in s
        assert s["switches"] == 16

    def test_four_rings_sparse_bisection(self, topo24):
        # The designed network's inter-ring sparsity shows up here — the
        # structural reason for the Figure 5 throughput collapse.  24
        # switches exceeds the exact-enumeration limit, so the sampled
        # estimate is an upper bound on the true bisection (which is 2:
        # cut the ring-of-rings cycle between {ring0,ring1}|{ring2,ring3}).
        s = summary(topo24)
        assert not s["bisection_exact"]
        assert 2 <= s["bisection_width"] <= 6
        # Edge connectivity (exact) already exposes the sparseness.
        assert s["edge_connectivity"] <= 3
