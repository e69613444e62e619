"""Heuristic search methods over fixed-size switch partitions.

The paper's scheduling technique is the multi-start Tabu search of
Section 4.2; the other methods here are the comparators it was selected
against (Section 2): simulated annealing, genetic algorithm and genetic
simulated annealing — plus exhaustive enumeration (the optimality
yardstick on small networks) and random sampling (the null baseline).

All methods share one representation: a :class:`~repro.search.state.PartitionState`
holding the labels, the incremental cluster-load matrix and the running
``F_G`` value, so a swap is evaluated in O(1) and applied in O(N).
"""

from repro.search.base import SearchMethod, SearchResult, SimilarityObjective
from repro.search.state import PartitionState
from repro.search.tabu import TabuSearch
from repro.search.annealing import SimulatedAnnealing
from repro.search.genetic import GeneticAlgorithm
from repro.search.gsa import GeneticSimulatedAnnealing
from repro.search.exhaustive import ExhaustiveSearch, count_partitions
from repro.search.random_search import RandomSearch
from repro.search.process_local import (
    ProcessMappingOptimizer,
    ProcessSearchResult,
    default_weights,
    random_process_mapping,
)

__all__ = [
    "SearchMethod",
    "SearchResult",
    "SimilarityObjective",
    "PartitionState",
    "TabuSearch",
    "SimulatedAnnealing",
    "GeneticAlgorithm",
    "GeneticSimulatedAnnealing",
    "ExhaustiveSearch",
    "count_partitions",
    "RandomSearch",
    "ProcessMappingOptimizer",
    "ProcessSearchResult",
    "default_weights",
    "random_process_mapping",
]
