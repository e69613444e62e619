"""Degraded-network construction: the single ``degrade()`` entry point.

Applying a :class:`~repro.faults.model.FaultScenario` to a topology yields
a :class:`DegradedNetwork`: the surviving switches, the connected
components they form, and — per component — a compactly renumbered
:class:`~repro.topology.graph.Topology` with its reconfigured up*/down*
routing and table of equivalent distances (built lazily, through the
module-level distance cache).

Degradation never raises just because the network broke apart: a
partitioning fault produces several :class:`ComponentNetwork` objects
instead of one, and downstream consumers (degraded-mode scheduling, the
failure study) decide how to proceed per component.  What *does* raise is
a scenario that names elements the topology does not have — that is a
caller bug, not a fault condition.

:meth:`DegradedNetwork.verify` re-checks the two guarantees the paper
inherits from Autonet on the *surviving* network: up*/down* reconnects
every component (all legal distances finite) and remains deadlock-free
(acyclic channel dependency graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.distance.cache import cached_distance_table
from repro.distance.table import DistanceTable
from repro.faults.model import FaultScenario
from repro.routing.deadlock import is_deadlock_free
from repro.routing.updown import UpDownRouting
from repro.topology.graph import Link, Topology, bfs_distances


@dataclass
class ComponentNetwork:
    """One connected component of a degraded network.

    ``switches`` holds the member switches under their *original* ids;
    ``topology`` is the induced subgraph renumbered compactly so the usual
    routing/distance/search machinery applies unchanged.  ``to_local`` /
    ``to_global`` translate between the two id spaces.
    """

    switches: Tuple[int, ...]
    topology: Topology
    _routing: Optional[UpDownRouting] = field(default=None, repr=False)
    _table: Optional[DistanceTable] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """Number of switches in the component."""
        return len(self.switches)

    @property
    def host_capacity(self) -> int:
        """Hosts (processor slots) the component still offers."""
        return self.topology.num_hosts

    @property
    def to_global(self) -> Tuple[int, ...]:
        """Local id ``k`` → original switch id ``to_global[k]``."""
        return self.switches

    @property
    def to_local(self) -> Dict[int, int]:
        """Original switch id → local id in :attr:`topology`."""
        return {s: i for i, s in enumerate(self.switches)}

    def routing(self) -> UpDownRouting:
        """Reconfigured up*/down* routing for the component (cached)."""
        if self._routing is None:
            self._routing = UpDownRouting(self.topology)
        return self._routing

    def distance_table(self) -> DistanceTable:
        """Table of equivalent distances for the component (cached)."""
        if self._table is None:
            self._table = cached_distance_table(self.routing())
        return self._table


@dataclass
class VerificationReport:
    """Outcome of :meth:`DegradedNetwork.verify` on one degraded network."""

    components_connected: bool
    deadlock_free: Optional[bool]

    @property
    def ok(self) -> bool:
        """True when every executed check passed."""
        return self.components_connected and self.deadlock_free in (None, True)


@dataclass
class DegradedNetwork:
    """A topology with a fault scenario applied.

    The central object of the fault subsystem: scenario + surviving
    switches + connected components.  ``connected`` means the survivors
    form a single component; ``full_machine`` additionally means no switch
    (hence no host) was lost, i.e. the old workload still fits exactly and
    old partitions remain directly comparable.
    """

    base: Topology
    scenario: FaultScenario
    surviving_switches: Tuple[int, ...]
    surviving_links: Tuple[Link, ...]
    components: Tuple[ComponentNetwork, ...]

    @property
    def connected(self) -> bool:
        """True when the surviving switches form one component."""
        return len(self.components) == 1

    @property
    def full_machine(self) -> bool:
        """True when the network is connected and no switch failed."""
        return self.connected and not self.scenario.switches

    @property
    def host_capacity(self) -> int:
        """Total surviving processor slots across all components."""
        return sum(c.host_capacity for c in self.components)

    def routing(self) -> UpDownRouting:
        """Reconfigured routing of the whole surviving network.

        Only defined when the network is still connected; a partitioned
        network has one routing per component
        (:meth:`ComponentNetwork.routing`).
        """
        if not self.connected:
            raise ValueError(
                f"scenario {self.scenario.label} partitioned {self.base.name} "
                f"into {len(self.components)} components; use the per-"
                "component routings"
            )
        return self.components[0].routing()

    def distance_table(self) -> DistanceTable:
        """Distance table of the surviving network (connected case only)."""
        if not self.connected:
            raise ValueError(
                f"scenario {self.scenario.label} partitioned {self.base.name};"
                " use the per-component distance tables"
            )
        return self.components[0].distance_table()

    def verify(self, *, check_deadlock: bool = True) -> VerificationReport:
        """Re-check up*/down* guarantees on every surviving component.

        - every component's legal distances are finite (routing reconnects
          the component after reconfiguration);
        - with ``check_deadlock=True`` (CDG analysis, quadratic in
          component size) the reconfigured routing stays deadlock-free.
        """
        reconnects = True
        deadlock_free: Optional[bool] = True if check_deadlock else None
        for comp in self.components:
            if comp.size == 1:
                continue
            d = comp.routing().distances()
            if (d < 0).any():  # pragma: no cover - updown guarantees this
                reconnects = False
            if check_deadlock and not is_deadlock_free(comp.routing()):
                deadlock_free = False  # pragma: no cover - updown guarantee
        return VerificationReport(
            components_connected=reconnects, deadlock_free=deadlock_free
        )


def _components_of(num_switches: int, switches: Tuple[int, ...],
                   links: Tuple[Link, ...]) -> List[Tuple[int, ...]]:
    """Connected components over ``switches`` (original ids), sorted by
    descending size then ascending lowest member id."""
    adj: List[List[int]] = [[] for _ in range(num_switches)]
    for u, v in links:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(num_switches, dtype=bool)
    comps: List[Tuple[int, ...]] = []
    for start in switches:
        if not seen[start]:
            reached = bfs_distances(adj, [start]) >= 0
            seen |= reached
            comps.append(tuple(np.flatnonzero(reached).tolist()))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def degrade(topology: Topology, scenario: FaultScenario) -> DegradedNetwork:
    """Apply a fault scenario to a topology: the subsystem's entry point.

    Validates the scenario (unknown links/switches raise ``ValueError``
    naming the missing element), removes the failed elements, and returns
    the surviving network decomposed into connected components.  A
    partitioning fault yields several components rather than raising.
    """
    scenario.validate(topology)
    dead_links = set(scenario.links)
    dead_switches = set(scenario.switches)
    survivors = tuple(
        s for s in range(topology.num_switches) if s not in dead_switches
    )
    links = tuple(
        l for l in topology.links
        if l not in dead_links
        and l[0] not in dead_switches
        and l[1] not in dead_switches
    )
    # Induce the components from the topology WITHOUT the failed links:
    # inducing from the base would silently restore a failed link whose
    # endpoints both survive in the same component.
    stripped = topology.without_links(scenario.links) if scenario.links \
        else topology
    components = tuple(
        ComponentNetwork(
            switches=members,
            topology=stripped.induced_subtopology(members),
        )
        for members in _components_of(topology.num_switches, survivors, links)
    )
    return DegradedNetwork(
        base=topology,
        scenario=scenario,
        surviving_switches=survivors,
        surviving_links=links,
        components=components,
    )


__all__ = [
    "ComponentNetwork",
    "VerificationReport",
    "DegradedNetwork",
    "degrade",
]
