"""Traffic patterns and message arrival processes.

The paper's evaluation traffic is *100 % intracluster uniform*: every
process sends only to other processes of its own logical cluster, all
processes inject at the same rate (:class:`IntraClusterTraffic` with
``intercluster_fraction=0``).  :class:`UniformTraffic` is the standard
comparison pattern, and the ``intercluster_fraction`` knob implements the
paper's future-work relaxation of the all-intracluster assumption.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from repro.core.mapping import ProcessMapping
from repro.topology.graph import Topology
from repro.util.validation import check_probability


class TrafficPattern(ABC):
    """Chooses a destination host for each generated message."""

    @abstractmethod
    def dest_for(self, src_host: int, rng: random.Random) -> int:
        """Destination host for a message from ``src_host`` (never the source)."""

    @abstractmethod
    def active_hosts(self) -> Sequence[int]:
        """Hosts that generate traffic under this pattern."""

    def rate_scale(self, host: int) -> float:
        """Per-host multiplier on the nominal injection rate (default 1)."""
        return 1.0


class UniformTraffic(TrafficPattern):
    """Every host sends to every other host uniformly."""

    def __init__(self, topology: Topology):
        if topology.num_hosts < 2:
            raise ValueError("uniform traffic needs at least two hosts")
        self.topology = topology
        self._hosts = list(range(topology.num_hosts))

    def dest_for(self, src_host: int, rng: random.Random) -> int:
        dst = rng.randrange(self.topology.num_hosts - 1)
        return dst if dst < src_host else dst + 1

    def active_hosts(self) -> Sequence[int]:
        return self._hosts


class IntraClusterTraffic(TrafficPattern):
    """The paper's pattern: destinations uniform within the sender's cluster.

    Parameters
    ----------
    mapping:
        Process→host mapping; the logical-cluster structure and the hosts
        that actually run processes are read from it.
    intercluster_fraction:
        Probability that a message instead picks a uniform destination in a
        *different* cluster (0 reproduces the paper; >0 is the extension).
    weighted:
        When True, hosts inject proportionally to their logical cluster's
        ``comm_weight`` (extension beyond the equal-requirements
        assumption).
    """

    def __init__(self, mapping: ProcessMapping, *,
                 intercluster_fraction: float = 0.0, weighted: bool = False):
        check_probability(intercluster_fraction, "intercluster_fraction")
        self.intercluster_fraction = intercluster_fraction
        self.weighted = weighted
        self.cluster_of: Dict[int, int] = mapping.cluster_of_host()
        if not self.cluster_of:
            raise ValueError("mapping places no processes")
        self.hosts_by_cluster: Dict[int, List[int]] = {}
        for h, c in sorted(self.cluster_of.items()):
            self.hosts_by_cluster.setdefault(c, []).append(h)
        for c, hosts in self.hosts_by_cluster.items():
            if len(hosts) < 2:
                raise ValueError(
                    f"cluster {c} has a single host; intracluster traffic "
                    "needs at least two"
                )
        self._weights = {
            c: mapping.workload.clusters[c].comm_weight
            for c in self.hosts_by_cluster
        }
        self._all_clusters = sorted(self.hosts_by_cluster)

    def dest_for(self, src_host: int, rng: random.Random) -> int:
        c = self.cluster_of[src_host]
        if (self.intercluster_fraction > 0.0
                and len(self._all_clusters) > 1
                and rng.random() < self.intercluster_fraction):
            others = [x for x in self._all_clusters if x != c]
            target = others[rng.randrange(len(others))]
            hosts = self.hosts_by_cluster[target]
            return hosts[rng.randrange(len(hosts))]
        hosts = self.hosts_by_cluster[c]
        while True:
            dst = hosts[rng.randrange(len(hosts))]
            if dst != src_host:
                return dst

    def active_hosts(self) -> Sequence[int]:
        return sorted(self.cluster_of)

    def rate_scale(self, host: int) -> float:
        if not self.weighted:
            return 1.0
        return self._weights[self.cluster_of[host]]


__all__ = [
    "TrafficPattern",
    "UniformTraffic",
    "IntraClusterTraffic",
]
