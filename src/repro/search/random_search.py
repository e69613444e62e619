"""Random sampling baseline.

The paper's null hypothesis: mappings drawn uniformly at random (this is
exactly what its "randomly generated mappings" are).  As a search method it
keeps the best of ``samples`` draws; with ``samples=1`` it produces one
random mapping for the simulator comparisons.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mapping import Partition
from repro.parallel import WorkersLike
from repro.search.base import (_EPS, SearchMethod, SearchResult,
                               SimilarityObjective)


class RandomSearch(SearchMethod):
    """Keep the best of ``samples`` uniformly random partitions.

    ``restarts`` draws ``samples`` per restart from independent RNG streams
    (the parallel unit for the process pool), keeping the best overall.
    """

    name = "random"

    def __init__(self, *, samples: int = 100, restarts: int = 1,
                 workers: WorkersLike = None):
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self._init_multistart(restarts, workers)
        self.samples = samples

    def _run_single(self, objective: SimilarityObjective,
                    rng: np.random.Generator,
                    initial: Optional[Partition]) -> SearchResult:
        best_partition = initial
        best_value = objective.value(initial) if initial is not None else float("inf")
        trace = [] if initial is None else [best_value]
        for _ in range(self.samples):
            state = objective.random_state(rng)
            v = state.value()
            trace.append(v)
            if v < best_value - _EPS:
                best_value = v
                best_partition = state.partition()
        assert best_partition is not None
        return SearchResult(
            best_partition=best_partition,
            best_value=best_value,
            method=self.name,
            iterations=self.samples,
            evaluations=self.samples,
            trace=trace,
        )


__all__ = ["RandomSearch"]
