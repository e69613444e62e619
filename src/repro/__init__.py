"""repro — communication-aware task scheduling for switch-based NOWs.

A faithful, self-contained reproduction of

    J. M. Orduña, V. Arnau, A. Ruiz, R. Valero, J. Duato,
    "On the Design of Communication-Aware Task Scheduling Strategies for
    Heterogeneous Systems", ICPP 2000,

including every substrate the paper depends on: irregular switch-network
topologies, up*/down* routing, the table of equivalent distances (the
electrical-resistance communication-cost model), the similarity /
dissimilarity quality functions and clustering coefficient, the multi-start
Tabu scheduling technique (plus the comparator heuristics), a flit-level
wormhole network simulator, the classical computation-aware mapping
heuristics, and drivers regenerating every figure of the evaluation.

Quick start::

    from repro import (
        random_irregular_topology, CommunicationAwareScheduler, Workload,
    )

    topo = random_irregular_topology(16, seed=42)
    scheduler = CommunicationAwareScheduler(topo)
    result = scheduler.schedule(Workload.uniform(4, 16), seed=1)
    print(result.summary())
"""

from repro.topology import (
    Topology,
    random_irregular_topology,
    four_rings_topology,
)
from repro.routing import UpDownRouting, MinimalRouting, RoutingTable
from repro.distance import (
    DistanceTable,
    build_distance_table,
    hop_distance_table,
    TableCache,
    cached_distance_table,
    cached_routing_table,
    configure_cache,
)
from repro.checkpoint import CheckpointMismatch, SweepCheckpoint
from repro.faults import (
    DegradedNetwork,
    FaultScenario,
    compare_repair_strategies,
    degrade,
    repair_schedule,
    sample_fault_scenarios,
    schedule_degraded,
)
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    collect_manifest,
    trace_run,
)
from repro.parallel import (
    WorkerPool,
    detect_workers,
    parallel_map,
    resolve_workers,
)
from repro.core import (
    LogicalCluster,
    Workload,
    Partition,
    ProcessMapping,
    CommunicationAwareScheduler,
    ScheduleResult,
    clustering_coefficient,
)
from repro.search import (
    TabuSearch,
    SimulatedAnnealing,
    GeneticAlgorithm,
    GeneticSimulatedAnnealing,
    ExhaustiveSearch,
    RandomSearch,
)
from repro.simulation import (
    SimulationConfig,
    WormholeNetworkSimulator,
    FastWormholeNetworkSimulator,
    make_simulator,
    IntraClusterTraffic,
    UniformTraffic,
)

__version__ = "1.0.0"

__all__ = [
    "Topology",
    "random_irregular_topology",
    "four_rings_topology",
    "UpDownRouting",
    "MinimalRouting",
    "RoutingTable",
    "DistanceTable",
    "build_distance_table",
    "hop_distance_table",
    "TableCache",
    "cached_distance_table",
    "cached_routing_table",
    "configure_cache",
    "detect_workers",
    "parallel_map",
    "resolve_workers",
    "WorkerPool",
    "CheckpointMismatch",
    "SweepCheckpoint",
    "Tracer",
    "MetricsRegistry",
    "RunManifest",
    "collect_manifest",
    "trace_run",
    "FaultScenario",
    "sample_fault_scenarios",
    "DegradedNetwork",
    "degrade",
    "repair_schedule",
    "compare_repair_strategies",
    "schedule_degraded",
    "LogicalCluster",
    "Workload",
    "Partition",
    "ProcessMapping",
    "CommunicationAwareScheduler",
    "ScheduleResult",
    "clustering_coefficient",
    "TabuSearch",
    "SimulatedAnnealing",
    "GeneticAlgorithm",
    "GeneticSimulatedAnnealing",
    "ExhaustiveSearch",
    "RandomSearch",
    "SimulationConfig",
    "WormholeNetworkSimulator",
    "FastWormholeNetworkSimulator",
    "make_simulator",
    "IntraClusterTraffic",
    "UniformTraffic",
    "__version__",
]
