"""The paper's primary contribution.

- :mod:`repro.core.mapping` — logical clusters of processes, process→host
  mappings, and the induced partition of network switches;
- :mod:`repro.core.quality` — the similarity (``F_G``) and dissimilarity
  (``D_G``) global quality functions and the clustering coefficient
  ``C_c = D_G / F_G`` (Section 4.1);
- :mod:`repro.core.scheduler` — the communication-aware scheduling
  technique: multi-start Tabu search minimizing ``F_G`` (Section 4.2).
"""

from repro.core.mapping import (
    LogicalCluster,
    Workload,
    Partition,
    ProcessMapping,
    random_partition,
    partition_to_mapping,
)
from repro.core.quality import (
    QualityEvaluator,
    clustering_coefficient,
    weighted_mapping_cost,
)
from repro.core.scheduler import CommunicationAwareScheduler, ScheduleResult

__all__ = [
    "LogicalCluster",
    "Workload",
    "Partition",
    "ProcessMapping",
    "random_partition",
    "partition_to_mapping",
    "QualityEvaluator",
    "clustering_coefficient",
    "weighted_mapping_cost",
    "CommunicationAwareScheduler",
    "ScheduleResult",
]
