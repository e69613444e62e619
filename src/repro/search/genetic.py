"""Genetic algorithm over fixed-size partitions.

Chromosomes are permutations of the assigned switches; decoding fills the
clusters in order (first ``x_0`` genes → cluster 0, next ``x_1`` → cluster
1, ...), so every chromosome is a feasible partition by construction.
Crossover is order crossover (OX1); mutation is a gene transposition, which
corresponds exactly to the swap neighbourhood of the other methods.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.mapping import Partition
from repro.parallel import WorkersLike
from repro.search.base import (_EPS, SearchMethod, SearchResult,
                               SimilarityObjective)


def decode_permutation(perm: np.ndarray, sizes: Sequence[int],
                       num_switches: int) -> Partition:
    """Permutation of assigned switches → partition with the given sizes."""
    labels = np.full(num_switches, -1, dtype=np.int64)
    pos = 0
    for c, size in enumerate(sizes):
        for s in perm[pos:pos + size]:
            labels[int(s)] = c
        pos += size
    return Partition(labels)


def order_crossover(p1: np.ndarray, p2: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """OX1: copy a slice of ``p1``, fill the rest in ``p2`` order."""
    n = p1.size
    child = np.full(n, -1, dtype=p1.dtype)
    i, j = sorted(rng.integers(0, n, size=2))
    child[i:j + 1] = p1[i:j + 1]
    used = set(int(x) for x in child[i:j + 1])
    fill = [int(x) for x in p2 if int(x) not in used]
    k = 0
    for idx in range(n):
        if child[idx] == -1:
            child[idx] = fill[k]
            k += 1
    return child


class GeneticAlgorithm(SearchMethod):
    """Permutation-encoded GA minimizing ``F_G``.

    Parameters mirror the classic scheme: tournament selection, OX1
    crossover, transposition mutation, elitist replacement.  ``restarts``
    runs that many independent populations (each from its own RNG stream,
    optionally on a ``workers``-wide process pool) and keeps the best.
    """

    name = "genetic"

    def __init__(self, *, population: int = 40, generations: int = 60,
                 crossover_rate: float = 0.9, mutation_rate: float = 0.3,
                 tournament: int = 3, elite: int = 2,
                 restarts: int = 1, workers: WorkersLike = None):
        if population < 2:
            raise ValueError(f"population must be >= 2, got {population}")
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if not (0 <= crossover_rate <= 1 and 0 <= mutation_rate <= 1):
            raise ValueError("rates must be probabilities")
        if tournament < 1:
            raise ValueError(f"tournament must be >= 1, got {tournament}")
        if not (0 <= elite <= population):
            raise ValueError(f"elite must be in [0, population], got {elite}")
        self._init_multistart(restarts, workers)
        self.population = population
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.tournament = tournament
        self.elite = elite

    def _evaluate(self, objective: SimilarityObjective, perm: np.ndarray) -> float:
        part = decode_permutation(perm, objective.sizes, objective.num_switches)
        return objective.value(part)

    def _run_single(self, objective: SimilarityObjective,
                    rng: np.random.Generator,
                    initial: Optional[Partition]) -> SearchResult:
        n_assigned = sum(objective.sizes)
        base = np.arange(objective.num_switches)

        pop: List[np.ndarray] = []
        if initial is not None:
            perm = np.concatenate([np.array(c) for c in initial.clusters()])
            pop.append(perm.astype(np.int64))
        while len(pop) < self.population:
            pop.append(rng.permutation(base)[:n_assigned]
                       if n_assigned < base.size else rng.permutation(base))

        fitness = np.array([self._evaluate(objective, p) for p in pop])
        evals = len(pop)
        best_idx = int(np.argmin(fitness))
        best_value = float(fitness[best_idx])
        best_perm = pop[best_idx].copy()
        trace = [best_value]

        for _gen in range(self.generations):
            order = np.argsort(fitness)
            new_pop = [pop[i].copy() for i in order[:self.elite]]
            while len(new_pop) < self.population:
                p1 = self._tournament_pick(pop, fitness, rng)
                if rng.random() < self.crossover_rate:
                    p2 = self._tournament_pick(pop, fitness, rng)
                    child = order_crossover(p1, p2, rng)
                else:
                    child = p1.copy()
                if rng.random() < self.mutation_rate:
                    i, j = rng.integers(0, child.size, size=2)
                    child[i], child[j] = child[j], child[i]
                new_pop.append(child)
            pop = new_pop
            fitness = np.array([self._evaluate(objective, p) for p in pop])
            evals += len(pop)
            gen_best = int(np.argmin(fitness))
            if fitness[gen_best] < best_value - _EPS:
                best_value = float(fitness[gen_best])
                best_perm = pop[gen_best].copy()
            trace.append(best_value)

        best_partition = decode_permutation(best_perm, objective.sizes,
                                            objective.num_switches)
        return SearchResult(
            best_partition=best_partition,
            best_value=best_value,
            method=self.name,
            iterations=self.generations,
            evaluations=evals,
            trace=trace,
        )

    def _tournament_pick(self, pop: List[np.ndarray], fitness: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, len(pop), size=self.tournament)
        winner = idx[np.argmin(fitness[idx])]
        return pop[int(winner)]


__all__ = ["GeneticAlgorithm", "decode_permutation", "order_crossover"]
