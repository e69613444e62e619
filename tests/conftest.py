"""Shared fixtures: canonical topologies, routings, tables and workloads.

Everything is seeded so failures are reproducible; fixtures that are
expensive to build (distance tables) are session-scoped.
"""

from __future__ import annotations

import pytest

from repro.core.mapping import Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.table import build_distance_table
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.topology.designed import four_rings_topology, mesh_topology
from repro.topology.irregular import random_irregular_topology
from tests.topologies import ring_topology


@pytest.fixture(scope="session")
def topo16():
    """The paper's 16-switch random irregular network (fixed seed)."""
    return random_irregular_topology(16, seed=42, name="t16")


@pytest.fixture(scope="session")
def topo8():
    """A small 8-switch irregular network for exhaustive comparisons."""
    return random_irregular_topology(8, seed=7, name="t8")


@pytest.fixture(scope="session")
def topo24():
    """The designed four-ring 24-switch network."""
    return four_rings_topology()


@pytest.fixture(scope="session")
def ring6():
    return ring_topology(6)


@pytest.fixture(scope="session")
def mesh33():
    return mesh_topology(3, 3)


@pytest.fixture(scope="session")
def routing16(topo16):
    return UpDownRouting(topo16)


@pytest.fixture(scope="session")
def routing8(topo8):
    return UpDownRouting(topo8)


@pytest.fixture(scope="session")
def table16(routing16):
    return build_distance_table(routing16)


@pytest.fixture(scope="session")
def table8(routing8):
    return build_distance_table(routing8)


@pytest.fixture(scope="session")
def rtable16(routing16):
    return RoutingTable(routing16)


@pytest.fixture(scope="session")
def workload16():
    """4 applications x 16 processes: the paper's 16-switch workload."""
    return Workload.uniform(4, 16)


@pytest.fixture(scope="session")
def workload8():
    """2 applications x 16 processes on an 8-switch machine."""
    return Workload.uniform(2, 16)


@pytest.fixture(scope="session")
def scheduler16(topo16):
    return CommunicationAwareScheduler(topo16)
