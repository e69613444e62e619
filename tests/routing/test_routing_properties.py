"""Property-based tests on routing algorithms (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing.base import Phase
from repro.routing.minimal import MinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.irregular import random_irregular_topology
from tests.routing.paths import support_links


@st.composite
def routed_networks(draw):
    n = draw(st.sampled_from([8, 10, 12, 14]))
    seed = draw(st.integers(0, 10_000))
    topo = random_irregular_topology(n, seed=seed)
    root = draw(st.integers(0, n - 1))
    return topo, UpDownRouting(topo, root=root)


@given(routed_networks())
@settings(max_examples=25, deadline=None)
def test_updown_connects_everything(net):
    topo, r = net
    d = r.distances()
    assert (d >= 0).all()
    assert (np.diag(d) == 0).all()
    off = d + np.eye(topo.num_switches)
    assert (off > 0).all(), "distinct switches must be at positive distance"


@given(routed_networks())
@settings(max_examples=25, deadline=None)
def test_updown_distance_sandwich(net):
    # hop distance <= legal distance <= level[src] + level[dst]
    topo, r = net
    d = r.distances()
    raw = topo.hop_distances()
    lv = r.level
    assert (d >= raw).all()
    bound = lv[:, None] + lv[None, :]
    assert (d <= bound + 0).all()


@given(routed_networks(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_every_walked_path_is_legal_and_shortest(net, seed):
    topo, r = net
    rng = np.random.default_rng(seed)
    d = r.distances()
    n = topo.num_switches
    src, dst = rng.integers(0, n, size=2)
    if src == dst:
        return
    # Walk randomly through next_hops choices; any walk must be shortest.
    current, phase = int(src), Phase.UP
    steps = 0
    while current != dst:
        hops = r.next_hops(current, phase, int(dst))
        assert hops
        current, phase = hops[int(rng.integers(len(hops)))]
        steps += 1
        assert steps <= d[src, dst], "walk exceeded the legal shortest distance"
    assert steps == d[src, dst]


@given(routed_networks())
@settings(max_examples=20, deadline=None)
def test_link_support_symmetry_and_validity(net):
    topo, r = net
    n = topo.num_switches
    rng = np.random.default_rng(0)
    for _ in range(5):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        links = support_links(r, int(i), int(j))
        assert links == support_links(r, int(j), int(i))
        for u, v in links:
            assert topo.has_link(u, v)


@given(st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_minimal_distances_are_metric(seed):
    topo = random_irregular_topology(10, seed=seed)
    d = MinimalRouting(topo).distances()
    n = topo.num_switches
    for j in range(n):
        via = d[:, j][:, None] + d[j, :][None, :]
        assert (d <= via).all(), "hop distances must satisfy the triangle inequality"
