"""Tests for up*/down* routing."""

import numpy as np
import pytest

from repro.routing.base import Phase
from repro.routing.updown import UpDownRouting, bfs_levels, choose_root
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology
from tests.routing.paths import shortest_path, support_links
from tests.topologies import binary_tree_topology, ring_topology, star_topology


class TestLevelsAndRoot:
    def test_bfs_levels_star(self):
        t = star_topology(5)
        levels = bfs_levels(t, 0)
        assert levels[0] == 0 and (levels[1:] == 1).all()

    def test_choose_root_max_degree(self):
        t = star_topology(5)
        assert choose_root(t) == 0

    def test_choose_root_tie_lowest_id(self):
        t = ring_topology(6)  # all degree 2
        assert choose_root(t) == 0

    def test_root_out_of_range(self, topo16):
        with pytest.raises(ValueError):
            UpDownRouting(topo16, root=99)

    def test_disconnected_rejected(self):
        t = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            UpDownRouting(t)


class TestOrientation:
    def test_up_toward_root(self):
        t = star_topology(4)
        r = UpDownRouting(t, root=0)
        for leaf in (1, 2, 3):
            assert r.is_up(leaf, 0)
            assert not r.is_up(0, leaf)

    def test_same_level_tie_by_id(self):
        # Triangle rooted at 0: nodes 1, 2 are level 1; 1<2 so 2->1 is up.
        t = Topology(3, [(0, 1), (0, 2), (1, 2)])
        r = UpDownRouting(t, root=0)
        assert r.is_up(2, 1)
        assert not r.is_up(1, 2)

    def test_is_up_requires_link(self, topo16, routing16):
        non_neighbors = [
            (u, v) for u in range(16) for v in range(16)
            if u != v and not topo16.has_link(u, v)
        ]
        u, v = non_neighbors[0]
        with pytest.raises(ValueError):
            routing16.is_up(u, v)

    def test_up_end(self):
        # The up end of every link of a star is its root, the hub.
        t = star_topology(3)
        r = UpDownRouting(t, root=0)
        assert r.is_up(1, 0) and r.is_up(2, 0)
        assert not r.is_up(0, 2)


class TestDistances:
    def test_diagonal_zero(self, routing16):
        d = routing16.distances()
        assert (np.diag(d) == 0).all()

    def test_symmetric(self, routing16):
        d = routing16.distances()
        assert (d == d.T).all()

    def test_at_least_hop_distance(self, topo16, routing16):
        legal = routing16.distances()
        raw = topo16.hop_distances()
        assert (legal >= raw).all()

    def test_bounded_by_via_root_path(self, topo16, routing16):
        # Any src can go up to the root then down: d <= level[s]+level[t].
        d = routing16.distances()
        lv = routing16.level
        for s in range(16):
            for t in range(16):
                assert d[s, t] <= lv[s] + lv[t]

    def test_ring_updown_detour(self):
        # On a 6-ring rooted at 0, the link 2-3 ... some minimal paths are
        # forbidden; distance between the two "deep" nodes on either side
        # of the ring bottom may exceed the raw hop distance.
        t = ring_topology(6)
        r = UpDownRouting(t, root=0)
        raw = t.hop_distances()
        legal = r.distances()
        assert (legal >= raw).all()
        assert (legal > raw).any(), "up*/down* on a ring must forbid some minimal path"

    def test_tree_equals_hop_distance(self):
        # On a tree every path is the unique minimal path and always legal.
        t = binary_tree_topology(4)
        r = UpDownRouting(t, root=0)
        assert (r.distances() == t.hop_distances()).all()


class TestNextHops:
    def test_empty_at_destination(self, routing16):
        assert routing16.next_hops(3, Phase.UP, 3) == ()

    def test_progress_invariant(self, routing16):
        # Following any returned hop decreases the remaining distance by 1.
        d = routing16.distances()
        _, rest = routing16._state_distances()
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                hops = routing16.next_hops(src, Phase.UP, dst)
                assert hops, f"no first hop {src}->{dst}"
                for v, ph in hops:
                    assert rest[dst, ph * 16 + v] == d[src, dst] - 1

    def test_down_phase_never_goes_up(self, topo16, routing16):
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                for v, ph in routing16.next_hops(src, Phase.DOWN, dst):
                    assert ph == Phase.DOWN
                    assert not routing16.is_up(src, v)

    def test_shortest_path_valid(self, topo16, routing16):
        d = routing16.distances()
        for src in range(0, 16, 3):
            for dst in range(0, 16, 5):
                if src == dst:
                    continue
                path = shortest_path(routing16, src, dst)
                assert path[0] == src and path[-1] == dst
                assert len(path) - 1 == d[src, dst]
                for a, b in zip(path, path[1:]):
                    assert topo16.has_link(a, b)

    def test_path_is_up_then_down(self, topo16, routing16):
        for src in range(0, 16, 2):
            for dst in range(1, 16, 3):
                if src == dst:
                    continue
                path = shortest_path(routing16, src, dst)
                seen_down = False
                for a, b in zip(path, path[1:]):
                    if routing16.is_up(a, b):
                        assert not seen_down, f"up after down on {path}"
                    else:
                        seen_down = True


class TestLinksOnShortestPaths:
    def test_empty_for_same_node(self, routing16):
        assert support_links(routing16, 4, 4) == frozenset()

    def test_symmetric(self, routing16):
        # Up*/down* legality is direction-symmetric (reverse of a legal
        # path is legal), so the link support must be symmetric too.
        for i in range(0, 16, 3):
            for j in range(0, 16, 4):
                if i == j:
                    continue
                assert support_links(routing16, i, j) == \
                    support_links(routing16, j, i)

    def test_contains_some_path(self, topo16, routing16):
        for i in range(0, 16, 5):
            for j in range(1, 16, 3):
                if i == j:
                    continue
                links = support_links(routing16, i, j)
                path = shortest_path(routing16, i, j)
                for a, b in zip(path, path[1:]):
                    key = (a, b) if a < b else (b, a)
                    assert key in links

    def test_all_links_are_real(self, topo16, routing16):
        links = support_links(routing16, 0, 9)
        for u, v in links:
            assert topo16.has_link(u, v)

    def test_single_path_chain(self):
        # On a path graph the support is exactly the path's links.
        t = Topology(4, [(0, 1), (1, 2), (2, 3)])
        r = UpDownRouting(t, root=0)
        assert support_links(r, 0, 3) == frozenset(
            {(0, 1), (1, 2), (2, 3)}
        )


class TestCaching:
    def test_distance_cache_stable(self, routing16):
        a = routing16.distances()
        b = routing16.distances()
        assert a is b

    def test_backward_cache(self, routing16):
        a = routing16._state_distances()
        b = routing16._state_distances()
        assert a[1] is b[1]
