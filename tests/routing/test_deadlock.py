"""Channel-dependency-graph deadlock analysis tests.

The central safety property of the simulator configuration: up*/down* is
deadlock-free on every topology, while unrestricted minimal routing on
cyclic topologies is not.
"""

import pytest

from repro.routing.deadlock import channel_dependency_graph, is_deadlock_free
from repro.routing.minimal import MinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.designed import four_rings_topology, torus_topology
from repro.topology.irregular import random_irregular_topology
from tests.topologies import binary_tree_topology, ring_topology


class TestUpDownDeadlockFree:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_irregular(self, seed):
        topo = random_irregular_topology(12, seed=seed)
        assert is_deadlock_free(UpDownRouting(topo))

    def test_four_rings(self):
        assert is_deadlock_free(UpDownRouting(four_rings_topology()))

    def test_ring(self):
        assert is_deadlock_free(UpDownRouting(ring_topology(8)))

    def test_any_root(self):
        topo = random_irregular_topology(10, seed=3)
        for root in range(topo.num_switches):
            assert is_deadlock_free(UpDownRouting(topo, root=root))


class TestMinimalNotDeadlockFree:
    def test_ring_cycles(self):
        # All-minimal routing on an even ring creates a channel cycle.
        assert not is_deadlock_free(MinimalRouting(ring_topology(6)))

    def test_torus_cycles(self):
        assert not is_deadlock_free(MinimalRouting(torus_topology(3, 3)))

    def test_tree_is_safe(self):
        # No cycles in the topology => no cycles in the CDG.
        assert is_deadlock_free(MinimalRouting(binary_tree_topology(3)))


class TestCdgStructure:
    def test_nodes_are_directed_channels(self, topo16, routing16):
        deps = channel_dependency_graph(routing16)
        assert len(deps) == 2 * topo16.num_links
        for (u, v), succs in deps.items():
            assert topo16.has_link(u, v)
            for (a, b) in succs:
                assert a == v, "dependency must continue from the channel head"

    def test_updown_no_down_to_up_dependency(self, routing16):
        deps = channel_dependency_graph(routing16)
        for (u, v), succs in deps.items():
            if not routing16.is_up(u, v):      # arriving on a down channel
                for (a, b) in succs:
                    assert not routing16.is_up(a, b), \
                        "down->up dependency violates up*/down*"


def oracle_cdg(routing):
    """The per-pair CDG walk: for every (src, dst), breadth-first over the
    (switch, phase) states reachable through ``next_hops``."""
    topo = routing.topology
    deps = {c: set() for u, v in topo.links for c in ((u, v), (v, u))}
    for dst in range(topo.num_switches):
        for src in range(topo.num_switches):
            if src == dst:
                continue
            seen = set()
            frontier = [(src, routing.initial_phase())]
            while frontier:
                nxt = []
                for s, p in frontier:
                    if (s, p) in seen:
                        continue
                    seen.add((s, p))
                    for v1, p1 in routing.next_hops(s, p, dst):
                        for v2, _ in routing.next_hops(v1, p1, dst):
                            deps[(s, v1)].add((v1, v2))
                        nxt.append((v1, p1))
                frontier = nxt
    return deps


class TestCdgMatchesPerPairWalk:
    @pytest.mark.parametrize("n, seed", [(8, 0), (12, 1), (16, 2), (24, 3)])
    def test_seeded_irregular(self, n, seed):
        topo = random_irregular_topology(n, seed=seed)
        for routing in (UpDownRouting(topo), UpDownRouting(topo, root=n - 1),
                        MinimalRouting(topo)):
            assert channel_dependency_graph(routing) == oracle_cdg(routing)

    @pytest.mark.parametrize("topo", [ring_topology(6), torus_topology(3, 3),
                                      four_rings_topology()],
                             ids=["ring6", "torus3x3", "four_rings"])
    def test_regular(self, topo):
        for routing in (UpDownRouting(topo), MinimalRouting(topo)):
            assert channel_dependency_graph(routing) == oracle_cdg(routing)
