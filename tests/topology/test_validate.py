"""Tests for the topology invariant oracles in ``tests/topologies.py``."""

import pytest

from repro.topology.designed import four_rings_topology
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology
from tests.topologies import (
    TopologyError,
    check_paper_constraints,
    ring_topology,
    validate_topology,
)


class TestValidateTopology:
    def test_valid_passes(self, topo16):
        validate_topology(topo16)

    def test_disconnected_fails(self):
        t = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError, match="disconnected"):
            validate_topology(t)

    def test_disconnected_allowed_when_requested(self):
        t = Topology(4, [(0, 1), (2, 3)])
        validate_topology(t, require_connected=False)


class TestPaperConstraints:
    def test_generator_output_passes(self):
        check_paper_constraints(random_irregular_topology(16, seed=5))

    def test_wrong_hosts_rejected(self):
        t = random_irregular_topology(8, seed=1, hosts_per_switch=2,
                                      switch_ports=8)
        with pytest.raises(TopologyError, match="hosts"):
            check_paper_constraints(t)

    def test_wrong_degree_rejected(self):
        t = ring_topology(8)  # degree 2 everywhere
        with pytest.raises(TopologyError, match="degree"):
            check_paper_constraints(t)

    def test_designed_four_rings_not_paper_regular(self):
        # The Figure 4 network is deliberately not 3-regular.
        with pytest.raises(TopologyError):
            check_paper_constraints(four_rings_topology())
