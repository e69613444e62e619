"""Search interfaces and the similarity objective.

Every method optimizes the same thing: minimize ``F_G`` over partitions of
the switches into clusters of fixed sizes (Section 4.2 — minimizing the
similarity function maximizes the clustering coefficient for fixed sizes).
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.mapping import Partition, random_partition
from repro.core.quality import QualityEvaluator, TableLike
from repro.obs import trace as _trace
from repro.parallel import WorkersLike, parallel_map
from repro.search.state import _EPS, PartitionState
from repro.util.rng import SeedLike, as_rng, spawn_rngs


class SimilarityObjective:
    """Minimize ``F_G`` over partitions with fixed cluster sizes.

    Parameters
    ----------
    table:
        A :class:`~repro.distance.table.DistanceTable` or raw matrix.
    sizes:
        Switches per cluster (the paper: equal sizes ``N / M``).
    num_switches:
        Defaults to the table size; may be larger only in tests.
    """

    def __init__(self, table: TableLike, sizes: Sequence[int],
                 num_switches: Optional[int] = None):
        self.evaluator = QualityEvaluator(table)
        self.sizes = [int(s) for s in sizes]
        if any(s <= 0 for s in self.sizes):
            raise ValueError(f"cluster sizes must be positive, got {self.sizes}")
        self.num_switches = num_switches or self.evaluator.n
        if sum(self.sizes) > self.num_switches:
            raise ValueError(
                f"sizes sum to {sum(self.sizes)} > {self.num_switches} switches"
            )
        if self.num_switches != self.evaluator.n:
            raise ValueError(
                f"table covers {self.evaluator.n} switches, topology has "
                f"{self.num_switches}"
            )

    def random_state(self, seed: SeedLike = None) -> PartitionState:
        """A search state over a uniformly random fixed-size partition."""
        part = random_partition(self.sizes, self.num_switches, seed)
        return PartitionState(self.evaluator, part)

    def state_from(self, partition: Partition) -> PartitionState:
        """Wrap an existing partition (warm start); sizes must match."""
        if partition.sizes() != self.sizes:
            raise ValueError(
                f"partition sizes {partition.sizes()} do not match objective "
                f"sizes {self.sizes}"
            )
        return PartitionState(self.evaluator, partition)

    def value(self, partition: Partition) -> float:
        """``F_G`` of a partition under this objective's table."""
        return self.evaluator.similarity(partition)


@dataclass
class SearchResult:
    """Outcome of one search run.

    ``trace`` records the objective value after every iteration (for Tabu,
    exactly the ``F(P_i)`` series of Figure 1); ``restart_indices`` marks
    where each seed's segment starts within the trace.
    """

    best_partition: Partition
    best_value: float
    method: str
    iterations: int = 0
    evaluations: int = 0
    trace: List[float] = field(default_factory=list)
    restart_indices: List[int] = field(default_factory=list)
    optimal: Optional[bool] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.best_value):
            raise ValueError(f"non-finite best value {self.best_value}")


def _execute_start(job: tuple) -> "SearchResult":
    """Top-level restart worker (must be picklable for process pools)."""
    method, objective, index, rng, initial = job
    return method._run_single(objective, rng, initial if index == 0 else None)


class SearchMethod(ABC):
    """A strategy that minimizes a :class:`SimilarityObjective`.

    Multi-start execution is shared here: subclasses implement
    :meth:`_run_single` (one independent start from one RNG stream) and the
    base :meth:`run` fans the configured ``restarts`` out over pre-derived
    streams (:func:`~repro.util.rng.spawn_rngs`), optionally on a process
    pool (``workers``), and merges the per-start results in start order.
    Because stream derivation and merging are independent of *where* each
    start ran, parallel results are bit-identical to serial ones.

    :meth:`_run_starts` is the seam between the two: Tabu overrides it to
    run small serial searches' starts in lockstep.  Exhaustive enumeration
    overrides :meth:`run` directly instead.
    """

    name: str = "search"
    restarts: int = 1
    workers: WorkersLike = None

    def _init_multistart(self, restarts: int, workers: WorkersLike) -> None:
        """Validate and store the shared multi-start knobs (ctor helper)."""
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.restarts = int(restarts)
        self.workers = workers

    def run(self, objective: SimilarityObjective, seed: SeedLike = None,
            initial: Optional[Partition] = None) -> SearchResult:
        """Run the search and return the best partition found.

        ``initial`` lets callers warm-start from a known partition (it is
        given to the first start only); methods that are population- or
        enumeration-based may ignore it.

        When telemetry is active the whole run is wrapped in a
        ``search.<name>`` span and one ``search.restart`` event is emitted
        per start (from the parent process, so serial and pooled runs
        trace identically).  Telemetry never touches the RNG streams.
        """
        with _trace.span(f"search.{self.name}",
                         restarts=self.restarts) as sp:
            rngs = ([as_rng(seed)] if self.restarts <= 1
                    else spawn_rngs(seed, self.restarts))
            starts = self._run_starts(objective, rngs, initial)
            self._emit_restart_events(starts)
            result = (starts[0] if len(starts) == 1
                      else self._merge_starts(starts))
            sp.set(best_value=result.best_value,
                   iterations=result.iterations,
                   evaluations=result.evaluations)
            return result

    def _run_starts(self, objective: SimilarityObjective,
                    rngs: Sequence[np.random.Generator],
                    initial: Optional[Partition]) -> List[SearchResult]:
        """Run one start per stream, in start order (the multi-start seam).

        A single start runs in this process; several go through
        :func:`~repro.parallel.parallel_map`, one job per start.  Only the
        first start receives ``initial``.
        """
        if len(rngs) == 1:
            return [self._run_single(objective, rngs[0], initial)]
        jobs = [(self, objective, i, rng, initial)
                for i, rng in enumerate(rngs)]
        return parallel_map(_execute_start, jobs, workers=self.workers)

    _RESTART_META_KEYS = ("accepted", "uphill", "tabu_masked",
                          "local_min_visits")

    def _emit_restart_events(self, starts: Sequence["SearchResult"]) -> None:
        """Emit one ``search.restart`` event per start (telemetry only).

        Runs in the parent even when the starts executed on a process
        pool — workers have no tracer installed — so serial and parallel
        runs produce the same event stream.  A no-op without a tracer.
        """
        if _trace.current_tracer() is None:
            return
        for index, res in enumerate(starts):
            extras = {k: res.meta[k] for k in self._RESTART_META_KEYS
                      if k in res.meta}
            _trace.event("search.restart", index=index, method=res.method,
                         best_value=res.best_value,
                         iterations=res.iterations,
                         evaluations=res.evaluations,
                         trace=list(res.trace), **extras)

    def _run_single(self, objective: SimilarityObjective,
                    rng: np.random.Generator,
                    initial: Optional[Partition]) -> SearchResult:
        """One independent start from one RNG stream (subclass hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _run_single or override run"
        )

    def _merge_starts(self, starts: Sequence[SearchResult]) -> SearchResult:
        """Combine per-start results deterministically.

        The winner is chosen by ``(value, start index)``: a later start
        only displaces the incumbent by improving on it beyond ``_EPS`` —
        the same rule the serial loop applies — so the merged result does
        not depend on completion order.
        """
        winner = starts[0]
        for candidate in starts[1:]:
            if candidate.best_value < winner.best_value - _EPS:
                winner = candidate
        trace: List[float] = []
        restart_indices: List[int] = []
        iterations = evaluations = 0
        for res in starts:
            restart_indices.append(len(trace))
            trace.extend(res.trace)
            iterations += res.iterations
            evaluations += res.evaluations
        return SearchResult(
            best_partition=winner.best_partition,
            best_value=winner.best_value,
            method=self.name,
            iterations=iterations,
            evaluations=evaluations,
            trace=trace,
            restart_indices=restart_indices,
            meta=self._merge_meta([res.meta for res in starts]),
        )

    def _merge_meta(self, metas: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """Merged-result ``meta`` (subclass hook; per-start metas given)."""
        return {"restarts": self.restarts}


__all__ = ["SimilarityObjective", "SearchResult", "SearchMethod"]

