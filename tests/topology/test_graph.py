"""Tests for the Topology model."""

import numpy as np
import pytest

from repro.topology.graph import Topology


def small_topo():
    #  0-1, 1-2, 2-0 triangle plus pendant 3
    return Topology(4, [(0, 1), (1, 2), (2, 0), (2, 3)], hosts_per_switch=2,
                    switch_ports=6)


class TestConstruction:
    def test_basic_counts(self):
        t = small_topo()
        assert t.num_switches == 4
        assert t.num_links == 4
        assert t.num_hosts == 8

    def test_links_normalized_sorted(self):
        t = Topology(3, [(2, 1), (1, 0)])
        assert t.links == ((0, 1), (1, 2))

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="self-link"):
            Topology(2, [(0, 0)])

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology(2, [(0, 1), (1, 0)])

    def test_out_of_range_switch(self):
        with pytest.raises(ValueError):
            Topology(2, [(0, 2)])

    def test_port_overflow_rejected(self):
        # 4 hosts + 8 ports => max degree 4; give switch 0 degree 5.
        links = [(0, i) for i in range(1, 6)]
        with pytest.raises(ValueError, match="degree"):
            Topology(6, links, hosts_per_switch=4, switch_ports=8)

    def test_zero_switches_rejected(self):
        with pytest.raises(ValueError):
            Topology(0, [])

    def test_ports_less_than_hosts_rejected(self):
        with pytest.raises(ValueError):
            Topology(1, [], hosts_per_switch=6, switch_ports=4)


class TestAccessors:
    def test_neighbors_sorted(self):
        t = small_topo()
        assert t.neighbors(2) == (0, 1, 3)

    def test_degree(self):
        t = small_topo()
        assert t.degree(2) == 3
        assert t.degree(3) == 1

    def test_has_link_symmetric(self):
        t = small_topo()
        assert t.has_link(0, 1) and t.has_link(1, 0)
        assert not t.has_link(0, 3)


class TestHosts:
    def test_host_switch_roundtrip(self):
        t = small_topo()
        for s in range(t.num_switches):
            for h in t.switch_hosts(s):
                assert t.host_switch(h) == s

    def test_host_out_of_range(self):
        t = small_topo()
        with pytest.raises(ValueError):
            t.host_switch(t.num_hosts)

    def test_switch_out_of_range(self):
        t = small_topo()
        with pytest.raises(ValueError):
            t.switch_hosts(4)


class TestDerived:

    def test_connected(self):
        assert small_topo().is_connected()

    def test_disconnected(self):
        t = Topology(4, [(0, 1), (2, 3)])
        assert not t.is_connected()

    def test_hop_distances(self):
        t = small_topo()
        d = t.hop_distances()
        assert d[0, 0] == 0
        assert d[0, 3] == 2
        assert (d == d.T).all()

    def test_hop_distances_disconnected(self):
        t = Topology(3, [(0, 1)])
        d = t.hop_distances()
        assert d[0, 2] == -1

    def test_diameter(self):
        assert small_topo().diameter() == 2

    def test_diameter_disconnected_raises(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 1)]).diameter()

    def test_single_switch_connected(self):
        assert Topology(1, []).is_connected()


class TestRemoval:
    def test_without_link(self):
        t = small_topo().without_links([(0, 1)])
        assert t.num_links == 3
        assert not t.has_link(0, 1)
        assert t.num_switches == 4

    def test_without_link_missing_names_link(self):
        with pytest.raises(ValueError, match=r"\(0,3\) is not a link"):
            small_topo().without_links([(0, 3)])
        with pytest.raises(ValueError, match=r"\(1,9\) is not a link"):
            small_topo().without_links([(1, 9)])

    def test_without_links_batch(self):
        t = small_topo().without_links([(0, 1), (2, 3)])
        assert t.num_links == 2
        assert not t.has_link(0, 1) and not t.has_link(2, 3)

    def test_without_links_empty_is_identity(self):
        t = small_topo()
        assert t.without_links([]) is t

    def test_without_links_missing_names_link(self):
        with pytest.raises(ValueError, match=r"\(1,3\) is not a link"):
            small_topo().without_links([(0, 1), (1, 3)])

    def test_without_switch_renumbers(self):
        # Drop switch 1 of the triangle+pendant: 2->1, 3->2.
        t = small_topo().induced_subtopology([0, 2, 3])
        assert t.num_switches == 3
        assert t.has_link(0, 1)   # old 0-2
        assert t.has_link(1, 2)   # old 2-3
        assert t.num_links == 2

    def test_without_switch_out_of_range_names_switch(self):
        with pytest.raises(ValueError,
                           match=r"switch 7 is not a switch .*0\.\.3"):
            small_topo().induced_subtopology([7])
        with pytest.raises(ValueError, match="switch -1"):
            small_topo().induced_subtopology([-1])

    def test_induced_subtopology_sorted_id_map(self):
        t = small_topo().induced_subtopology([2, 0, 1])
        assert t.num_switches == 3
        # sorted([2,0,1]) == [0,1,2]: the triangle survives intact.
        assert t.num_links == 3

    def test_induced_subtopology_drops_crossing_links(self):
        t = small_topo().induced_subtopology([0, 3])
        assert t.num_switches == 2
        assert t.num_links == 0

    def test_induced_subtopology_validation(self):
        with pytest.raises(ValueError, match=">= 1 switch"):
            small_topo().induced_subtopology([])
        with pytest.raises(ValueError, match="duplicate"):
            small_topo().induced_subtopology([0, 0])
        with pytest.raises(ValueError, match="switch 4"):
            small_topo().induced_subtopology([0, 4])


class TestInterop:
    def test_networkx_export(self):
        g = small_topo().to_networkx()
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4

    def test_relabeled_isomorphic(self):
        t = small_topo()
        perm = [3, 2, 1, 0]
        r = t.relabeled(perm)
        assert r.num_links == t.num_links
        for u, v in t.links:
            assert r.has_link(perm[u], perm[v])

    def test_relabeled_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            small_topo().relabeled([0, 0, 1, 2])

    def test_equality_and_hash(self):
        a = small_topo()
        b = small_topo()
        assert a == b and hash(a) == hash(b)
        c = Topology(4, [(0, 1), (1, 2), (2, 0)], hosts_per_switch=2,
                     switch_ports=6)
        assert a != c

    def test_repr(self):
        assert "switches=4" in repr(small_topo())
