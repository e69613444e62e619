"""Tests for the table of equivalent distances."""

import numpy as np
import pytest

from repro.core.quality import QualityEvaluator
from repro.distance.table import DistanceTable, build_distance_table, hop_distance_table
from repro.routing.minimal import MinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.graph import Topology
from tests.topologies import binary_tree_topology, ring_topology


class TestDistanceTable:
    def test_valid_table(self):
        t = DistanceTable(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert t.num_nodes == 2
        assert t[0, 1] == 2.0

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            DistanceTable(np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DistanceTable(np.array([[0.0, -2.0], [-2.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            DistanceTable(np.zeros((2, 3)))

    def test_values_readonly(self):
        t = DistanceTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            t.values[0, 1] = 5.0

    def test_squared(self):
        t = DistanceTable(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert t.squared()[0, 1] == 9.0

    def test_quadratic_mean_squared(self):
        vals = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
        # The paper's normalization: mean T_ij² over unordered pairs.
        assert QualityEvaluator(vals).norm == pytest.approx((1 + 4 + 9) / 3)


class TestBuildDistanceTable:
    def test_symmetric_nonneg(self, table16):
        assert np.allclose(table16.values, table16.values.T)
        assert (table16.values >= 0).all()
        assert (np.diag(table16.values) == 0).all()

    def test_upper_bounded_by_legal_distance(self, routing16, table16):
        # Parallel shortest paths can only lower the resistance.
        legal = routing16.distances().astype(float)
        assert (table16.values <= legal + 1e-9).all()

    def test_adjacent_nodes_distance_one(self, topo16, table16):
        # Neighbours share exactly one link and a 1-hop shortest path, so
        # the subnetwork is a single unit resistor: T must be exactly 1.
        d = topo16.hop_distances()
        for i in range(16):
            for j in range(16):
                if d[i, j] == 1:
                    assert table16.values[i, j] == pytest.approx(1.0)

    def test_tree_table_equals_hops(self):
        # On a tree there is a unique path: resistance == hop count.
        topo = binary_tree_topology(3)
        r = UpDownRouting(topo, root=0)
        t = build_distance_table(r)
        assert np.allclose(t.values, topo.hop_distances())

    def test_parallel_paths_reduce_distance(self):
        # 4-cycle with minimal routing: antipodal nodes have two disjoint
        # 2-hop paths -> resistance 1 < 2 hops.
        topo = ring_topology(4)
        r = MinimalRouting(topo)
        t = build_distance_table(r)
        assert t.values[0, 2] == pytest.approx(1.0)
        assert t.values[1, 3] == pytest.approx(1.0)

    def test_routing_affects_table(self):
        # On an odd ring, up*/down* forbids one direction for some pairs,
        # increasing their equivalent distance over minimal routing.
        topo = ring_topology(5)
        t_min = build_distance_table(MinimalRouting(topo))
        t_ud = build_distance_table(UpDownRouting(topo, root=0))
        assert (t_ud.values >= t_min.values - 1e-9).all()
        assert (t_ud.values > t_min.values + 1e-9).any()

    def test_kind_and_name(self, table16):
        assert table16.kind == "equivalent"
        assert "updown" in table16.name


class TestHopDistanceTable:
    def test_matches_routing_distances(self, routing16):
        t = hop_distance_table(routing16)
        assert np.allclose(t.values, routing16.distances())
        assert t.kind == "hops"

    def test_hops_bound_equivalent(self, routing16, table16):
        h = hop_distance_table(routing16)
        assert (table16.values <= h.values + 1e-9).all()
