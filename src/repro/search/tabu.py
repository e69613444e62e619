"""The paper's Tabu search variant (Section 4.2).

Per seed (random initial mapping):

1. take the swap of two switches in different clusters with the greatest
   decrease of ``F``; if no decrease exists (local minimum), take the swap
   with the *smallest increase* instead;
2. forbid the inverse of the applied swap for ``tenure`` iterations (the
   "Tabu movements"); a tabu swap may still be taken if it would improve on
   the best value seen so far (aspiration — standard, and consistent with
   the paper's "the search must end when F reaches its minimum value");
3. stop the seed when the same local minimum has been visited three times,
   or after 20 iterations.

The whole procedure restarts from 10 random seeds and keeps the best
partition overall.  Restarts are fully independent — each runs from its own
:func:`~repro.util.rng.spawn_rngs` stream with its own tabu list and
aspiration level — so they can execute on a process pool
(``workers=...``) with results bit-identical to the serial order (see
:meth:`repro.search.base.SearchMethod.run`).  On networks small enough for
exhaustive enumeration the paper reports (and our tests verify) that this
finds the global optimum.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import Partition
from repro.parallel import WorkersLike
from repro.search.base import (_EPS, SearchMethod, SearchResult,
                               SimilarityObjective)


class TabuSearch(SearchMethod):
    """Multi-start Tabu search minimizing ``F_G``.

    Parameters
    ----------
    restarts:
        Random seeds to try (paper: 10).
    max_iterations:
        Swap iterations per seed (paper: 20).
    local_min_repeats:
        Stop a seed once one local minimum is reached this many times
        (paper: 3).
    tenure:
        Iterations an applied swap's inverse stays forbidden.  The paper
        leaves ``h`` unspecified; 5 reproduces its qualitative behaviour on
        16–24-switch networks.
    aspiration:
        Allow tabu moves that beat the best value seen so far.
    workers:
        Process-pool size for the restarts (``None`` = ``$REPRO_WORKERS``
        or serial, ``0``/``"auto"`` = all CPUs).
    """

    name = "tabu"

    def __init__(self, *, restarts: int = 10, max_iterations: int = 20,
                 local_min_repeats: int = 3, tenure: int = 5,
                 aspiration: bool = True, workers: WorkersLike = None):
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if local_min_repeats < 1:
            raise ValueError(f"local_min_repeats must be >= 1, got {local_min_repeats}")
        if tenure < 0:
            raise ValueError(f"tenure must be >= 0, got {tenure}")
        self._init_multistart(restarts, workers)
        self.max_iterations = max_iterations
        self.local_min_repeats = local_min_repeats
        self.tenure = tenure
        self.aspiration = aspiration

    def _run_single(self, objective: SimilarityObjective,
                    rng: np.random.Generator,
                    initial: Optional[Partition]) -> SearchResult:
        """One seed: steepest-descent swaps with tabu escape."""
        if initial is not None:
            state = objective.state_from(initial)
        else:
            state = objective.random_state(rng)
        best_value = state.value()
        best_partition = state.partition()
        trace = [best_value]

        # Cross-cluster pair count is invariant under swaps (fixed sizes).
        n_assigned = state.assigned.size
        n_candidates = n_assigned * (n_assigned - 1) // 2 - sum(
            x * (x - 1) // 2 for x in objective.sizes
        )

        tabu_until: Dict[Tuple[int, int], int] = {}
        local_min_counts: Counter = Counter()
        iterations = 0
        evaluations = 0
        accepted = 0
        uphill = 0
        tabu_masked = 0

        for it in range(self.max_iterations):
            forbidden = {p for p, until in tabu_until.items() if until > it}
            aspiration_level = best_value if self.aspiration else float("-inf")
            pair, _delta, free_delta = state.best_swaps(forbidden,
                                                        aspiration_level)
            evaluations += n_candidates
            if pair is None:
                break  # every move excluded (degenerate objective)
            if free_delta < _delta - _EPS:
                # The unrestricted best move was strictly better than the
                # best allowed one: the tabu list was binding this iteration.
                tabu_masked += 1

            if free_delta >= -_EPS:
                # Genuine local minimum of the *unrestricted* neighbourhood.
                # Judging by the tabu-filtered delta instead would also count
                # states whose improving escape is merely tabu-masked —
                # ticking the visit counter on iterations that are not local
                # minima and ending seeds early.
                key = state.partition().canonical_key()
                local_min_counts[key] += 1
                if local_min_counts[key] >= self.local_min_repeats:
                    break

            if _delta < -_EPS:
                accepted += 1
            else:
                uphill += 1
            state.apply_swap(*pair)
            iterations += 1
            tabu_until[pair] = it + 1 + self.tenure
            trace.append(state.value())

            if state.value() < best_value - _EPS:
                best_value = state.value()
                best_partition = state.partition()

        return SearchResult(
            best_partition=best_partition,
            best_value=best_value,
            method=self.name,
            iterations=iterations,
            evaluations=evaluations,
            trace=trace,
            restart_indices=[0],
            meta=self._params_meta(
                local_min_visits=sum(local_min_counts.values()),
                local_min_keys=list(local_min_counts),
                accepted=accepted,
                uphill=uphill,
                tabu_masked=tabu_masked,
            ),
        )

    def _merge_meta(self, metas: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        keys: List[tuple] = []
        for m in metas:
            keys.extend(m.get("local_min_keys", ()))
        return self._params_meta(
            local_min_visits=sum(m.get("local_min_visits", 0) for m in metas),
            local_min_keys=keys,
            accepted=sum(m.get("accepted", 0) for m in metas),
            uphill=sum(m.get("uphill", 0) for m in metas),
            tabu_masked=sum(m.get("tabu_masked", 0) for m in metas),
        )

    def _params_meta(self, **extra: Any) -> Dict[str, Any]:
        meta: Dict[str, Any] = {
            "restarts": self.restarts,
            "max_iterations": self.max_iterations,
            "tenure": self.tenure,
            "local_min_repeats": self.local_min_repeats,
        }
        meta.update(extra)
        return meta


__all__ = ["TabuSearch"]
