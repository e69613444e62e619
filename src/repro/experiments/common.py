"""Shared experiment infrastructure.

The paper's two showcase networks, mapping-set construction (the Tabu "OP"
mapping plus randomly generated mappings, each with its clustering
coefficient) and sweep execution over the S1…S9 load ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mapping import Partition, ProcessMapping, Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import cached_routing_table
from repro.parallel import WorkersLike, parallel_map
from repro.routing.tables import RoutingTable
from repro.simulation.config import SimulationConfig
from repro.simulation.sweep import (
    LoadPoint,
    find_saturation_rate,
    make_load_points,
    run_load_sweep,
)
from repro.simulation.traffic import IntraClusterTraffic
from repro.topology.designed import four_rings_topology
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology
from repro.util.rng import derive_seed


@dataclass
class MappingRecord:
    """One mapping under evaluation: the 'OP' mapping or a random one."""

    name: str                 # "OP" or "R1", "R2", ...
    partition: Partition
    mapping: ProcessMapping
    c_c: float
    f_g: float
    d_g: float


@dataclass
class ExperimentSetup:
    """A network plus everything the per-figure drivers need."""

    topology: Topology
    scheduler: CommunicationAwareScheduler
    workload: Workload
    routing_table: RoutingTable
    seed: int

    def op_mapping(self, seed: Optional[int] = None) -> MappingRecord:
        """The mapping produced by the paper's scheduling technique."""
        res = self.scheduler.schedule(
            self.workload, seed=self.seed if seed is None else seed
        )
        return MappingRecord("OP", res.partition, res.mapping,
                             res.c_c, res.f_g, res.d_g)

    def random_mappings(self, count: int,
                        seed: Optional[int] = None) -> List[MappingRecord]:
        """``count`` randomly generated mappings (the paper's R_i baselines)."""
        base = self.seed if seed is None else seed
        records = []
        for i in range(count):
            res = self.scheduler.random_schedule(
                self.workload, seed=derive_seed(base, "random-mapping", i)
            )
            records.append(
                MappingRecord(f"R{i + 1}", res.partition, res.mapping,
                              res.c_c, res.f_g, res.d_g)
            )
        return records

    def sweep(self, record: MappingRecord, rates: Sequence[float],
              config: SimulationConfig, *,
              workers: WorkersLike = None) -> List[LoadPoint]:
        """Simulate one mapping across the load ladder."""
        traffic = IntraClusterTraffic(record.mapping)
        cfg = replace(config, seed=derive_seed(config.seed, "mapping", record.name))
        return run_load_sweep(self.routing_table, traffic, rates, cfg,
                              workers=workers)

    def saturation_throughput(self, record: MappingRecord,
                              config: SimulationConfig) -> float:
        """Deep-saturation accepted traffic (the paper's 'throughput')."""
        return _mapping_saturation(
            (self.routing_table, record.mapping, record.name, config)
        )

    def saturation_throughputs(self, records: Sequence[MappingRecord],
                               config: SimulationConfig, *,
                               workers: WorkersLike = None) -> Dict[str, float]:
        """Saturation probes for several mappings, optionally in parallel.

        Each mapping's probe derives its seeds from the mapping *name*, so
        the probes are independent jobs and the result is identical whether
        they run serially or on a process pool.
        """
        jobs: List[_SaturationJob] = [
            (self.routing_table, r.mapping, r.name, config) for r in records
        ]
        values = parallel_map(_mapping_saturation, jobs, workers=workers)
        return {r.name: v for r, v in zip(records, values)}

    def load_ladder(self, config: SimulationConfig, n: int = 9, *,
                    op: Optional[MappingRecord] = None) -> List[float]:
        """S1…S9 rates: up to ~1.3× the OP mapping's saturation rate.

        Using the OP mapping to place S9 guarantees every random mapping is
        deep in saturation at the top of the ladder, like the paper's plots.
        Pass ``op`` when the caller already holds :meth:`op_mapping` to
        skip a second Tabu search.
        """
        if op is None:
            op = self.op_mapping()
        traffic = IntraClusterTraffic(op.mapping)
        sat = find_saturation_rate(self.routing_table, traffic, config)
        return make_load_points(1.3 * sat["rate"], n=n)


_SaturationJob = Tuple[RoutingTable, ProcessMapping, str, SimulationConfig]


def _mapping_saturation(job: _SaturationJob) -> float:
    """One mapping's deep-saturation probe (top-level for pickling)."""
    table, mapping, name, config = job
    traffic = IntraClusterTraffic(mapping)
    cfg = replace(config, seed=derive_seed(config.seed, "sat", name))
    return find_saturation_rate(table, traffic, cfg)["throughput"]


def paper_16switch_setup(seed: int = 42,
                         topology_seed: Optional[int] = None) -> ExperimentSetup:
    """The paper's 16-switch (64-workstation) random irregular network.

    4 logical clusters of 16 processes each (4 switches per cluster).
    """
    tseed = seed if topology_seed is None else topology_seed
    topo = random_irregular_topology(16, seed=tseed, name=f"paper-16sw-t{tseed}")
    sched = CommunicationAwareScheduler(topo)
    workload = Workload.uniform(4, 16)
    return ExperimentSetup(
        topology=topo,
        scheduler=sched,
        workload=workload,
        routing_table=cached_routing_table(sched.routing),
        seed=seed,
    )


def paper_24switch_setup(seed: int = 42) -> ExperimentSetup:
    """The specially designed 24-switch network (four interconnected rings).

    4 logical clusters of 24 processes each (6 switches per cluster).
    """
    topo = four_rings_topology()
    sched = CommunicationAwareScheduler(topo)
    workload = Workload.uniform(4, 24)
    return ExperimentSetup(
        topology=topo,
        scheduler=sched,
        workload=workload,
        routing_table=cached_routing_table(sched.routing),
        seed=seed,
    )


__all__ = [
    "MappingRecord",
    "ExperimentSetup",
    "paper_16switch_setup",
    "paper_24switch_setup",
]
