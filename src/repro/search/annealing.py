"""Simulated annealing over the swap neighbourhood.

One of the comparators the paper tried before settling on Tabu search
(Section 2): a single-solution iterative method that accepts worsening
swaps with probability ``exp(-Δ/T)`` under a geometric cooling schedule.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.mapping import Partition
from repro.parallel import WorkersLike
from repro.search.base import (_EPS, SearchMethod, SearchResult,
                               SimilarityObjective)


class SimulatedAnnealing(SearchMethod):
    """Swap-neighbourhood simulated annealing minimizing ``F_G``.

    Parameters
    ----------
    iterations:
        Proposed swaps in total.
    initial_temperature:
        Starting temperature in units of ``F_G``.  ``None`` calibrates it
        from a short random-walk sample so that ~80 % of uphill moves are
        initially accepted (standard practice).
    cooling:
        Geometric factor applied every ``steps_per_temperature`` proposals.
    restarts / workers:
        Independent annealing chains (one RNG stream each, best kept),
        optionally executed on a process pool.
    """

    name = "annealing"

    def __init__(self, *, iterations: int = 2000,
                 initial_temperature: Optional[float] = None,
                 cooling: float = 0.95, steps_per_temperature: int = 50,
                 restarts: int = 1, workers: WorkersLike = None):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if not (0 < cooling < 1):
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")
        if steps_per_temperature < 1:
            raise ValueError(
                f"steps_per_temperature must be >= 1, got {steps_per_temperature}"
            )
        self._init_multistart(restarts, workers)
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps_per_temperature = steps_per_temperature

    def _calibrate_temperature(self, state, rng: np.random.Generator) -> float:
        """Pick T0 so a typical uphill move is accepted with ~80 % probability."""
        deltas = []
        pairs = list(state.candidate_swaps())
        if not pairs:
            return 1.0
        for _ in range(min(100, 5 * len(pairs))):
            a, b = pairs[rng.integers(len(pairs))]
            d = state.swap_delta(a, b)
            if d > 0:
                deltas.append(d)
        if not deltas:
            return 1.0
        mean_up = float(np.mean(deltas))
        return mean_up / math.log(1.0 / 0.8)

    def _run_single(self, objective: SimilarityObjective,
                    rng: np.random.Generator,
                    initial: Optional[Partition]) -> SearchResult:
        state = (objective.state_from(initial) if initial is not None
                 else objective.random_state(rng))
        if not any(True for _ in state.candidate_swaps()):
            part = state.partition()
            return SearchResult(part, state.value(), self.name)
        assigned = state.assigned

        temp = (self.initial_temperature
                if self.initial_temperature is not None
                else self._calibrate_temperature(state, rng))
        best_partition = state.partition()
        best_value = state.value()
        trace = [best_value]
        evals = 0

        for step in range(self.iterations):
            # Sample a cross-cluster pair; membership drifts as swaps land,
            # so sample switches fresh each step instead of caching pairs.
            a = int(assigned[rng.integers(assigned.size)])
            b = int(assigned[rng.integers(assigned.size)])
            if state.labels[a] == state.labels[b]:
                continue
            delta = state.swap_delta(a, b)
            evals += 1
            accept = delta < _EPS or (
                temp > 0 and rng.random() < math.exp(-delta / temp)
            )
            if accept:
                state.apply_swap(a, b)
                trace.append(state.value())
                if state.value() < best_value - _EPS:
                    best_value = state.value()
                    best_partition = state.partition()
            if (step + 1) % self.steps_per_temperature == 0:
                temp *= self.cooling

        return SearchResult(
            best_partition=best_partition,
            best_value=best_value,
            method=self.name,
            iterations=self.iterations,
            evaluations=evals,
            trace=trace,
            meta={"final_temperature": temp},
        )


__all__ = ["SimulatedAnnealing"]
