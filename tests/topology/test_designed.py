"""Tests for the designed/regular topology constructors.

The ring, complete, star and binary-tree builders live in
``tests/topologies.py`` as fixtures; they are checked here beside the
package's own constructors.
"""

import pytest

from repro.topology.designed import (
    four_rings_topology,
    hypercube_topology,
    mesh_topology,
    torus_topology,
)
from tests.topologies import (
    binary_tree_topology,
    complete_topology,
    ring_topology,
    star_topology,
    validate_topology,
)


class TestFourRings:
    def test_default_shape(self):
        t = four_rings_topology()
        assert t.num_switches == 24
        validate_topology(t)
        # 4 rings of 6 edges + 4 inter-ring links.
        assert t.num_links == 24 + 4

    def test_ring_membership_links(self):
        t = four_rings_topology()
        for r in range(4):
            base = 6 * r
            for k in range(6):
                assert t.has_link(base + k, base + (k + 1) % 6)

    def test_more_inter_links(self):
        t = four_rings_topology(links_between_adjacent_rings=2)
        assert t.num_links == 24 + 8
        validate_topology(t)

    def test_other_sizes(self):
        t = four_rings_topology(rings=3, ring_size=4)
        assert t.num_switches == 12
        validate_topology(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            four_rings_topology(rings=2)
        with pytest.raises(ValueError):
            four_rings_topology(ring_size=2)
        with pytest.raises(ValueError):
            four_rings_topology(links_between_adjacent_rings=0)


class TestRegularTopologies:
    def test_ring(self):
        t = ring_topology(6)
        assert t.num_links == 6
        assert all(t.degree(s) == 2 for s in range(6))
        assert t.diameter() == 3

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_mesh(self):
        t = mesh_topology(3, 4)
        assert t.num_switches == 12
        assert t.num_links == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
        assert t.degree(0) == 2  # corner
        validate_topology(t)

    def test_mesh_single_row(self):
        t = mesh_topology(1, 5)
        assert t.num_links == 4

    def test_torus(self):
        t = torus_topology(3, 3)
        assert all(t.degree(s) == 4 for s in range(9))
        assert t.num_links == 2 * 9

    def test_torus_too_small(self):
        with pytest.raises(ValueError):
            torus_topology(2, 3)

    def test_hypercube(self):
        t = hypercube_topology(3)
        assert t.num_switches == 8
        assert all(t.degree(s) == 3 for s in range(8))
        assert t.diameter() == 3

    def test_complete(self):
        t = complete_topology(5)
        assert t.num_links == 10
        assert t.diameter() == 1

    def test_star(self):
        t = star_topology(5)
        assert t.degree(0) == 4
        assert all(t.degree(s) == 1 for s in range(1, 5))

    def test_binary_tree(self):
        t = binary_tree_topology(3)
        assert t.num_switches == 7
        assert t.num_links == 6
        assert t.is_connected()

    @pytest.mark.parametrize("builder,args", [
        (ring_topology, (2,)),
        (mesh_topology, (0, 3)),
        (hypercube_topology, (0,)),
        (complete_topology, (1,)),
        (star_topology, (1,)),
        (binary_tree_topology, (0,)),
    ])
    def test_rejects_degenerate(self, builder, args):
        with pytest.raises(ValueError):
            builder(*args)

