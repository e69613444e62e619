"""Tests for the random irregular topology generator."""

import pytest

from repro.topology.irregular import random_irregular_topology
from tests.topologies import check_paper_constraints, validate_topology


class TestGenerator:
    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
    def test_paper_constraints_hold(self, n):
        topo = random_irregular_topology(n, seed=1)
        check_paper_constraints(topo)

    def test_regular_degree(self):
        topo = random_irregular_topology(16, degree=3, seed=2)
        assert all(topo.degree(s) == 3 for s in range(16))

    def test_link_count(self):
        topo = random_irregular_topology(16, degree=3, seed=3)
        assert topo.num_links == 16 * 3 // 2

    def test_connected(self):
        for seed in range(10):
            assert random_irregular_topology(16, seed=seed).is_connected()

    def test_seed_reproducible(self):
        a = random_irregular_topology(16, seed=99)
        b = random_irregular_topology(16, seed=99)
        assert a.links == b.links

    def test_seeds_differ(self):
        a = random_irregular_topology(16, seed=1)
        b = random_irregular_topology(16, seed=2)
        assert a.links != b.links

    def test_other_degrees(self):
        topo = random_irregular_topology(10, degree=4, seed=1)
        assert all(topo.degree(s) == 4 for s in range(10))
        validate_topology(topo)

    def test_custom_name(self):
        topo = random_irregular_topology(8, seed=0, name="custom")
        assert topo.name == "custom"


class TestGeneratorValidation:
    def test_odd_stub_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_irregular_topology(15, degree=3)

    def test_degree_too_large_for_ports(self):
        with pytest.raises(ValueError, match="ports"):
            random_irregular_topology(16, degree=5)

    def test_degree_ge_n_rejected(self):
        with pytest.raises(ValueError):
            random_irregular_topology(3, degree=3, hosts_per_switch=0,
                                      switch_ports=8)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            random_irregular_topology(4, degree=0)
