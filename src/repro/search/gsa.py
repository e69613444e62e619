"""Genetic Simulated Annealing (Chen/Flann/Watson; Shroff et al.).

The hybrid the paper lists among its comparators: a population evolves via
crossover and mutation like a GA, but each offspring replaces its parent
according to the Metropolis criterion at a global temperature that cools
every generation — combining the GA's recombination with SA's controlled
acceptance of worse solutions.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.mapping import Partition
from repro.parallel import WorkersLike
from repro.search.base import (_EPS, SearchMethod, SearchResult,
                               SimilarityObjective)
from repro.search.genetic import decode_permutation, order_crossover


class GeneticSimulatedAnnealing(SearchMethod):
    """Population-based annealing over permutation-encoded partitions.

    ``restarts`` evolves that many independent populations (one RNG stream
    each, best kept), optionally on a ``workers``-wide process pool.
    """

    name = "gsa"

    def __init__(self, *, population: int = 20, generations: int = 80,
                 initial_temperature: float = 0.5, cooling: float = 0.93,
                 crossover_rate: float = 0.6,
                 restarts: int = 1, workers: WorkersLike = None):
        if population < 2:
            raise ValueError(f"population must be >= 2, got {population}")
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if initial_temperature <= 0:
            raise ValueError("initial_temperature must be > 0")
        if not (0 < cooling < 1):
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")
        if not (0 <= crossover_rate <= 1):
            raise ValueError("crossover_rate must be a probability")
        self._init_multistart(restarts, workers)
        self.population = population
        self.generations = generations
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.crossover_rate = crossover_rate

    def _run_single(self, objective: SimilarityObjective,
                    rng: np.random.Generator,
                    initial: Optional[Partition]) -> SearchResult:
        n_assigned = sum(objective.sizes)
        base = np.arange(objective.num_switches)

        def evaluate(perm: np.ndarray) -> float:
            return objective.value(
                decode_permutation(perm, objective.sizes, objective.num_switches)
            )

        pop: List[np.ndarray] = []
        if initial is not None:
            pop.append(np.concatenate(
                [np.array(c) for c in initial.clusters()]).astype(np.int64))
        while len(pop) < self.population:
            perm = rng.permutation(base)
            pop.append(perm[:n_assigned] if n_assigned < base.size else perm)
        fitness = [evaluate(p) for p in pop]
        evals = len(pop)

        best_i = int(np.argmin(fitness))
        best_value = fitness[best_i]
        best_perm = pop[best_i].copy()
        trace = [best_value]
        temp = self.initial_temperature

        for _gen in range(self.generations):
            for i in range(self.population):
                # Offspring: crossover with a random mate, else pure mutation.
                if rng.random() < self.crossover_rate:
                    mate = pop[int(rng.integers(self.population))]
                    child = order_crossover(pop[i], mate, rng)
                else:
                    child = pop[i].copy()
                a, b = rng.integers(0, child.size, size=2)
                child[a], child[b] = child[b], child[a]

                child_fit = evaluate(child)
                evals += 1
                delta = child_fit - fitness[i]
                if delta < _EPS or (temp > 0 and
                                    rng.random() < math.exp(-delta / temp)):
                    pop[i] = child
                    fitness[i] = child_fit
                    if child_fit < best_value - _EPS:
                        best_value = child_fit
                        best_perm = child.copy()
            temp *= self.cooling
            trace.append(best_value)

        return SearchResult(
            best_partition=decode_permutation(best_perm, objective.sizes,
                                              objective.num_switches),
            best_value=best_value,
            method=self.name,
            iterations=self.generations,
            evaluations=evals,
            trace=trace,
            meta={"final_temperature": temp},
        )


__all__ = ["GeneticSimulatedAnnealing"]
