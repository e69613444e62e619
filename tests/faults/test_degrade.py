"""Tests for the degraded-network view: components, routing, verification."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.degrade import degrade
from repro.faults.model import FaultScenario
from repro.topology.graph import Topology
from tests.topologies import ring_topology, star_topology


class TestHealthy:
    def test_no_faults_is_full_machine(self, topo8):
        net = degrade(topo8, FaultScenario())
        assert net.connected and net.full_machine
        assert len(net.components) == 1
        assert net.host_capacity == topo8.num_hosts
        assert net.surviving_switches == tuple(range(topo8.num_switches))

    def test_routing_and_table_work(self, topo8):
        net = degrade(topo8, FaultScenario(links=[topo8.links[0]]))
        if net.connected:
            table = net.distance_table()
            assert table.values.shape[0] == topo8.num_switches


class TestVerification:
    def test_survivable_fault_verifies_clean(self, topo16):
        net = degrade(topo16, FaultScenario(links=[topo16.links[0]]))
        report = net.verify()
        assert report.components_connected
        assert report.deadlock_free
        assert report.ok

    def test_partitioned_network_still_verifies_per_component(self):
        # Star: cutting a leaf link gives 2 components; up*/down* must
        # still cover (and stay deadlock-free on) each one.
        topo = star_topology(5)
        net = degrade(topo, FaultScenario(links=[(0, 1)]))
        assert not net.connected
        assert len(net.components) == 2
        assert net.verify().ok

    def test_invalid_scenario_raises_with_name(self, topo8):
        with pytest.raises(ValueError, match="99"):
            degrade(topo8, FaultScenario(links=[(0, 99)]))


class TestComponents:
    def test_partition_splits_components(self):
        topo = star_topology(5)  # hub 0, leaves 1..4
        net = degrade(topo, FaultScenario(links=[(0, 1)]))
        sizes = sorted(c.size for c in net.components)
        assert sizes == [1, 4]
        # Largest component first.
        assert net.components[0].size == 4

    def test_component_id_maps_round_trip(self):
        topo = star_topology(5)
        net = degrade(topo, FaultScenario(links=[(0, 2)]))
        comp = net.components[0]
        for g in comp.switches:
            assert comp.to_global[comp.to_local[g]] == g

    def test_component_routing_covers_component(self):
        topo = ring_topology(6)
        # Two cuts split the ring into two arcs.
        net = degrade(topo, FaultScenario(links=[(0, 1), (3, 4)]))
        assert len(net.components) == 2
        for comp in net.components:
            d = comp.distance_table().values
            assert d.shape == (comp.size, comp.size)
            assert (d[d > 0] < float("inf")).all()

    def test_partitioned_global_routing_raises(self):
        topo = star_topology(5)
        net = degrade(topo, FaultScenario(links=[(0, 1)]))
        with pytest.raises(ValueError, match="partition"):
            net.routing()
        with pytest.raises(ValueError, match="partition"):
            net.distance_table()

    def test_switch_fault_reduces_capacity(self, topo8):
        net = degrade(topo8, FaultScenario(switches=[0]))
        assert net.host_capacity == topo8.num_hosts - topo8.hosts_per_switch
        assert not net.full_machine
        assert 0 not in net.surviving_switches


@st.composite
def faulted_networks(draw):
    """A random simple graph (possibly disconnected) and a fault scenario
    over some of its links and fewer than all of its switches."""
    n = draw(st.integers(2, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    links = draw(st.lists(st.sampled_from(possible), unique=True, max_size=20))
    topo = Topology(n, links, hosts_per_switch=4, switch_ports=4 + n)
    failed_links = draw(st.lists(st.sampled_from(links), unique=True)) \
        if links else []
    failed_switches = draw(st.lists(st.integers(0, n - 1), unique=True,
                                    max_size=n - 1))
    return topo, FaultScenario(links=failed_links, switches=failed_switches)


@given(faulted_networks())
@settings(max_examples=80, deadline=None)
def test_components_match_networkx(network):
    """Property: degrade's components are networkx's connected components
    of the surviving graph, largest first, ties by lowest member id."""
    topo, scenario = network
    g = topo.to_networkx()
    g.remove_edges_from(scenario.links)
    g.remove_nodes_from(scenario.switches)
    expected = sorted((tuple(sorted(c)) for c in nx.connected_components(g)),
                      key=lambda c: (-len(c), c[0]))
    assert [c.switches for c in degrade(topo, scenario).components] == expected
