"""Workloads, process mappings and switch partitions.

The paper's object of optimization looks process-level ("mapping of
processes to processors") but, under its simplifying assumptions — one
process per processor, every logical cluster sized to an integer multiple
of a switch's host count — it collapses to a *partition of the network
switches* into clusters, one per application.  This module models both
levels and the collapse between them:

- :class:`LogicalCluster` / :class:`Workload` — the applications;
- :class:`Partition` — an assignment of switches to clusters;
- :class:`ProcessMapping` — an explicit process→host table, expanded from
  a partition by :func:`partition_to_mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.topology.graph import Topology
from repro.util.rng import SeedLike, as_rng
from repro.util.validation import check_tagged


@dataclass(frozen=True)
class LogicalCluster:
    """One application: a named group of communicating processes.

    ``comm_weight`` expresses relative per-process communication intensity
    (the paper fixes it to 1.0 for every application; the weighted quality
    functions and the traffic generator honour other values).
    """

    name: str
    num_processes: int
    comm_weight: float = 1.0

    def __post_init__(self):
        if self.num_processes <= 0:
            raise ValueError(f"cluster {self.name!r} needs >= 1 process")
        if self.comm_weight < 0:
            raise ValueError(f"cluster {self.name!r} has negative comm_weight")


class Workload:
    """An ordered set of logical clusters to be mapped onto a topology."""

    def __init__(self, clusters: Sequence[LogicalCluster]):
        if not clusters:
            raise ValueError("a workload needs at least one logical cluster")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names in workload: {names}")
        self.clusters: Tuple[LogicalCluster, ...] = tuple(clusters)

    @classmethod
    def uniform(cls, num_clusters: int, processes_per_cluster: int) -> "Workload":
        """The paper's workload shape: equal clusters, equal requirements."""
        if num_clusters <= 0:
            raise ValueError(f"num_clusters must be > 0, got {num_clusters}")
        return cls(
            [
                LogicalCluster(f"app{i}", processes_per_cluster)
                for i in range(num_clusters)
            ]
        )

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_processes(self) -> int:
        return sum(c.num_processes for c in self.clusters)

    def switch_quota(self, topology: Topology) -> List[int]:
        """Switches each cluster occupies under the paper's assumptions.

        Requires every cluster's process count to be an integer multiple of
        ``hosts_per_switch`` and the total to fit the machine exactly when
        summed (a partial machine is allowed: quotas may sum to < N).
        """
        hps = topology.hosts_per_switch
        if hps <= 0:
            raise ValueError("topology has no hosts to map processes onto")
        quotas = []
        for c in self.clusters:
            if c.num_processes % hps != 0:
                raise ValueError(
                    f"cluster {c.name!r} has {c.num_processes} processes, not a "
                    f"multiple of {hps} hosts/switch (paper assumption)"
                )
            quotas.append(c.num_processes // hps)
        if sum(quotas) > topology.num_switches:
            raise ValueError(
                f"workload needs {sum(quotas)} switches, topology has "
                f"{topology.num_switches}"
            )
        return quotas

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict (names, sizes, weights)."""
        return {
            "type": "workload",
            "version": 1,
            "clusters": [
                {
                    "name": c.name,
                    "num_processes": c.num_processes,
                    "comm_weight": c.comm_weight,
                }
                for c in self.clusters
            ],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Workload":
        """Decode a :meth:`to_dict` payload; ``ValueError`` if it is not one."""
        check_tagged(d, "workload")
        return cls([
            LogicalCluster(c["name"], c["num_processes"],
                           comm_weight=c.get("comm_weight", 1.0))
            for c in d["clusters"]
        ])

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.num_processes}" for c in self.clusters)
        return f"Workload({inner})"


class Partition:
    """A partition of switches ``0..N-1`` into ``M`` clusters.

    ``labels[s]`` is the cluster index of switch ``s``; ``-1`` marks an
    unassigned switch (allowed so partial-machine workloads can be
    expressed; the quality functions only look at assigned switches).
    """

    def __init__(self, labels: Sequence[int]):
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        used = sorted(set(int(x) for x in arr if x >= 0))
        if used and used != list(range(len(used))):
            raise ValueError(
                f"cluster labels must be consecutive starting at 0, got {used}"
            )
        self.labels = arr.copy()
        self.labels.setflags(write=False)

    @classmethod
    def from_clusters(
        cls, clusters: Sequence[Sequence[int]], num_switches: int
    ) -> "Partition":
        """Build from explicit member lists, e.g. ``[(5,6,8,15), (0,1,11,12), ...]``."""
        labels = np.full(num_switches, -1, dtype=np.int64)
        for idx, members in enumerate(clusters):
            for s in members:
                if not (0 <= s < num_switches):
                    raise ValueError(f"switch {s} outside 0..{num_switches - 1}")
                if labels[s] != -1:
                    raise ValueError(f"switch {s} assigned to two clusters")
                labels[s] = idx
        return cls(labels)

    @property
    def num_switches(self) -> int:
        return int(self.labels.size)

    @property
    def num_clusters(self) -> int:
        assigned = self.labels[self.labels >= 0]
        return int(assigned.max()) + 1 if assigned.size else 0

    def clusters(self) -> List[Tuple[int, ...]]:
        """Member switches per cluster, each ascending."""
        out: List[List[int]] = [[] for _ in range(self.num_clusters)]
        for s, c in enumerate(self.labels):
            if c >= 0:
                out[c].append(s)
        return [tuple(members) for members in out]

    def sizes(self) -> List[int]:
        """Member count per cluster, in cluster-index order."""
        return [len(c) for c in self.clusters()]

    def canonical_key(self) -> Tuple[Tuple[int, ...], ...]:
        """Label-order-independent identity (clusters as sorted tuple-of-tuples).

        Two partitions describe the same network division iff their keys
        match; used to detect repeated local minima in the Tabu search and
        to compare search results against exhaustive optima.
        """
        return tuple(sorted(self.clusters()))

    def with_swap(self, a: int, b: int) -> "Partition":
        """New partition with switches ``a`` and ``b`` exchanging clusters."""
        labels = self.labels.copy()
        labels[a], labels[b] = labels[b], labels[a]
        return Partition(labels)

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict (the ``--save`` file form)."""
        return {
            "type": "partition",
            "version": 1,
            "labels": [int(x) for x in self.labels],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Partition":
        """Decode a :meth:`to_dict` payload; ``ValueError`` if it is not one."""
        check_tagged(d, "partition")
        return cls(d["labels"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        body = " ".join(
            "(" + ",".join(map(str, c)) + ")" for c in self.clusters()
        )
        return f"Partition[{body}]"


def random_partition(
    sizes: Sequence[int],
    num_switches: int,
    seed: SeedLike = None,
) -> Partition:
    """Uniformly random partition with the given cluster sizes.

    This is the paper's "randomly generated mapping" baseline: the switch
    granularity is preserved (each application still owns whole switches),
    only the placement is random.
    """
    total = sum(sizes)
    if total > num_switches:
        raise ValueError(f"cluster sizes sum to {total} > {num_switches} switches")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"cluster sizes must be positive, got {list(sizes)}")
    rng = as_rng(seed)
    order = rng.permutation(num_switches)
    labels = np.full(num_switches, -1, dtype=np.int64)
    pos = 0
    for idx, size in enumerate(sizes):
        for s in order[pos : pos + size]:
            labels[s] = idx
        pos += size
    return Partition(labels)


@dataclass
class ProcessMapping:
    """An explicit process→host assignment for a workload on a topology.

    ``host_of[(cluster_index, process_index)] = host id``; the inverse
    view is derived on demand.
    """

    workload: Workload
    topology: Topology
    host_of: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def validate(self) -> None:
        """One process per processor, all processes placed, hosts in range."""
        expected = {
            (ci, pi)
            for ci, c in enumerate(self.workload.clusters)
            for pi in range(c.num_processes)
        }
        if set(self.host_of) != expected:
            missing = expected - set(self.host_of)
            extra = set(self.host_of) - expected
            raise ValueError(
                f"mapping incomplete: missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}"
            )
        hosts = list(self.host_of.values())
        for h in hosts:
            if not (0 <= h < self.topology.num_hosts):
                raise ValueError(f"host {h} outside 0..{self.topology.num_hosts - 1}")
        if len(set(hosts)) != len(hosts):
            raise ValueError("two processes share a host (paper: one per processor)")

    def cluster_of_host(self) -> Dict[int, int]:
        """host → logical-cluster index for every occupied host."""
        return {h: ci for (ci, _pi), h in self.host_of.items()}


def partition_to_mapping(
    partition: Partition, workload: Workload, topology: Topology
) -> ProcessMapping:
    """Expand a switch partition into a full process→host mapping.

    Processes of each cluster fill the hosts of their assigned switches in
    ascending order.  Requires cluster process counts to exactly fill the
    assigned switches.
    """
    mapping = ProcessMapping(workload, topology)
    clusters = partition.clusters()
    if len(clusters) != workload.num_clusters:
        raise ValueError(
            f"partition has {len(clusters)} clusters, workload has "
            f"{workload.num_clusters}"
        )
    for ci, members in enumerate(clusters):
        capacity = len(members) * topology.hosts_per_switch
        need = workload.clusters[ci].num_processes
        if capacity != need:
            raise ValueError(
                f"cluster {ci} ({workload.clusters[ci].name!r}) has {need} "
                f"processes but its switches hold {capacity} hosts"
            )
        hosts = [h for s in members for h in topology.switch_hosts(s)]
        for pi, h in enumerate(hosts):
            mapping.host_of[(ci, pi)] = h
    mapping.validate()
    return mapping


__all__ = [
    "LogicalCluster",
    "Workload",
    "Partition",
    "ProcessMapping",
    "random_partition",
    "partition_to_mapping",
]
