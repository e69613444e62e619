"""Property-based tests on the Topology model (hypothesis)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology


@st.composite
def arbitrary_topologies(draw):
    """Random simple graphs as Topology objects (possibly disconnected)."""
    n = draw(st.integers(2, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    subset = draw(st.lists(st.sampled_from(possible), unique=True, max_size=20))
    ports = 4 + n  # always enough ports
    return Topology(n, subset, hosts_per_switch=4, switch_ports=ports)


@given(arbitrary_topologies())
@settings(max_examples=60, deadline=None)
def test_hop_distances_match_networkx(topo):
    d = topo.hop_distances()
    g = topo.to_networkx()
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    for i in range(topo.num_switches):
        for j in range(topo.num_switches):
            expected = lengths.get(i, {}).get(j, -1)
            assert d[i, j] == expected


@given(arbitrary_topologies())
@settings(max_examples=60, deadline=None)
def test_connectivity_matches_networkx(topo):
    assert topo.is_connected() == nx.is_connected(topo.to_networkx()) \
        if topo.num_switches > 0 else True


@given(arbitrary_topologies(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_relabeling_preserves_degree_multiset(topo, pyrandom):
    perm = list(range(topo.num_switches))
    pyrandom.shuffle(perm)
    r = topo.relabeled(perm)
    assert sorted(topo.degree(s) for s in range(topo.num_switches)) == \
        sorted(r.degree(s) for s in range(r.num_switches))
    # Degree is equivariant: degree_r(perm[s]) == degree(s)
    for s in range(topo.num_switches):
        assert r.degree(perm[s]) == topo.degree(s)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_generator_always_valid(seed):
    topo = random_irregular_topology(12, seed=seed)
    assert topo.is_connected()
    assert all(topo.degree(s) == 3 for s in range(12))
    # Simple graph: no self-links and no parallel links.
    assert all(u != v for u, v in topo.links)
    assert len(set(topo.links)) == topo.num_links
