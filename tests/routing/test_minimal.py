"""Tests for unrestricted minimal routing."""

import numpy as np
import pytest

from repro.routing.base import Phase
from repro.routing.minimal import MinimalRouting
from repro.topology.designed import mesh_topology
from repro.topology.graph import Topology
from tests.routing.paths import shortest_path, support_links
from tests.topologies import ring_topology


class TestDistances:
    def test_equals_hop_distances(self, topo16):
        r = MinimalRouting(topo16)
        assert (r.distances() == topo16.hop_distances()).all()

    def test_disconnected_rejected(self):
        t = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            MinimalRouting(t)


class TestNextHops:
    def test_all_minimal_neighbors_offered(self):
        t = mesh_topology(3, 3)
        r = MinimalRouting(t)
        # From corner 0 to opposite corner 8 both directions are minimal.
        hops = r.next_hops(0, Phase.UP, 8)
        assert {v for v, _ in hops} == {1, 3}

    def test_empty_at_destination(self, topo16):
        assert MinimalRouting(topo16).next_hops(2, Phase.UP, 2) == ()

    def test_phase_ignored(self, topo16):
        r = MinimalRouting(topo16)
        assert r.next_hops(0, Phase.UP, 5) == r.next_hops(0, Phase.DOWN, 5)

    def test_shortest_path_length(self, topo16):
        r = MinimalRouting(topo16)
        d = r.distances()
        path = shortest_path(r, 0, 9)
        assert len(path) - 1 == d[0, 9]


class TestLinksOnShortestPaths:
    def test_ring_both_arcs_for_antipodes(self):
        t = ring_topology(6)
        r = MinimalRouting(t)
        # Nodes 0 and 3 are antipodal: both 3-hop arcs are minimal.
        links = support_links(r, 0, 3)
        assert links == frozenset(t.links)

    def test_ring_one_arc_for_neighbors(self):
        t = ring_topology(6)
        r = MinimalRouting(t)
        assert support_links(r, 0, 1) == frozenset({(0, 1)})

    def test_mesh_rectangle(self):
        t = mesh_topology(2, 2)
        r = MinimalRouting(t)
        links = support_links(r, 0, 3)
        assert links == frozenset(t.links)

    def test_subset_of_updown_distances(self, topo16, routing16):
        # Minimal distances never exceed up*/down* distances.
        m = MinimalRouting(topo16)
        assert (m.distances() <= routing16.distances()).all()

    def test_average_distance(self, topo16):
        r = MinimalRouting(topo16)
        d = r.distances().astype(float)
        n = topo16.num_switches
        expected = (d.sum()) / (n * (n - 1))
        assert r.average_distance() == pytest.approx(expected)
