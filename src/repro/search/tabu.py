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

Two execution paths give the same bits:

- per restart (:meth:`TabuSearch._run_single`): one job per start, serial
  or pooled;
- lockstep (:meth:`TabuSearch._run_lockstep`): a serial search on a
  network of at most :data:`LOCKSTEP_MAX_SWITCHES` switches, all assigned,
  advances every start by one iteration per stacked ``(R, n, n)``
  neighbourhood pass.  At the service's 16 switches a search is mostly
  per-call numpy overhead, and this pays it once per iteration instead of
  once per start.

Bit-identity holds because the stacked pass is elementwise arithmetic in
:meth:`~repro.search.state.PartitionState.best_swaps`' operation order,
then ``min`` and ``argmax``, all exact; each start keeps its own RNG
stream, tabu list, aspiration level and local-minimum counter; and the
per-start results are merged and traced by the same code as the pooled
path's.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import Partition
from repro.parallel import WorkersLike, resolve_workers
from repro.search.base import (_EPS, SearchMethod, SearchResult,
                               SimilarityObjective)

#: Largest network whose serial restarts run in lockstep
#: (:meth:`TabuSearch._run_lockstep`); on larger ones the stacked arrays
#: cost more than the per-call overhead they save.  A 10-restart search on
#: a 2-vCPU host ran 3.1x faster in lockstep at 16 switches, 2.0x at 24,
#: 1.7x at 32, 1.2x at 64 and 1.15x at 80, but 0.9-1.0x at 96 and 0.7x at
#: 128.
LOCKSTEP_MAX_SWITCHES = 64
#: Most starts stacked at once: wider searches run in groups of this many,
#: so a request's ``restarts`` cannot size the stacked arrays.
LOCKSTEP_MAX_STARTS = 32


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

    def _run_starts(self, objective: SimilarityObjective,
                    rngs: Sequence[np.random.Generator],
                    initial: Optional[Partition]) -> List[SearchResult]:
        """Lockstep for small serial searches, else one job per start."""
        n = objective.num_switches
        if (n > LOCKSTEP_MAX_SWITCHES or sum(objective.sizes) != n
                or (len(rngs) > 1 and resolve_workers(self.workers) > 1)):
            return super()._run_starts(objective, rngs, initial)
        starts: List[SearchResult] = []
        for first in range(0, len(rngs), LOCKSTEP_MAX_STARTS):
            starts += self._run_lockstep(
                objective, rngs[first:first + LOCKSTEP_MAX_STARTS],
                initial if first == 0 else None)
        return starts

    def _run_lockstep(self, objective: SimilarityObjective,
                      rngs: Sequence[np.random.Generator],
                      initial: Optional[Partition]) -> List[SearchResult]:
        """Every start at once, each taking :meth:`_run_single`'s steps.

        One stacked ``(R, n, n)`` pass per iteration computes the swap
        deltas of all ``R`` running starts in the operation order of
        :meth:`PartitionState.best_swaps`, so each start sees bit-equal
        deltas and picks the same pair.  Tabu masking, aspiration and the
        ``_EPS`` tie rule apply to each start's own slice; starts that stop
        drop out of the stack.  Requires every switch to be assigned, so
        all starts share one candidate set.  Local minima are counted on
        the label bytes, and a :class:`Partition` is built only for a label
        array seen for the first time and for each start's best.
        """
        ev = objective.evaluator
        n = objective.num_switches
        states = [objective.state_from(initial)
                  if index == 0 and initial is not None
                  else objective.random_state(rng)
                  for index, rng in enumerate(rngs)]
        scale = states[0].scale
        n_candidates = n * (n - 1) // 2 - sum(
            x * (x - 1) // 2 for x in objective.sizes
        )
        sq2 = ev.sq * 2.0
        lower = np.tri(n, dtype=bool)
        switches = np.arange(n)
        g = np.stack([s.g for s in states])            # (R, n, M)
        labels = np.stack([s.labels for s in states])  # (R, n)
        raw = [s.raw for s in states]
        # tabu_until of _run_single, indexed [start, a, b] with a < b.
        until = np.zeros((len(states), n, n), dtype=np.int64)
        runs = [_Start(s.value(), s.labels) for s in states]
        live = list(range(len(states)))   # start index of each stack row
        canonical: Dict[bytes, tuple] = {}

        for it in range(self.max_iterations):
            rows = np.arange(len(live))
            # gx[r, a, b] = G_r[a, cluster of b], as in best_swaps.
            gx = g[rows[:, None, None], switches[:, None], labels[:, None, :]]
            gs = gx.diagonal(axis1=1, axis2=2)
            deltas = gx.transpose(0, 2, 1) + gx
            deltas -= gs[:, :, None]
            deltas -= gs[:, None, :]
            deltas -= sq2
            deltas /= scale
            same = labels[:, :, None] == labels[:, None, :]
            deltas[same | lower] = np.inf
            flat = deltas.reshape(len(live), -1)
            free = flat.min(axis=1)
            forbidden = until > it
            if forbidden.any():
                level = (np.array([runs[r].best_value for r in live])
                         if self.aspiration else np.full(len(live), -np.inf))
                value = np.array(raw)[:, None, None] / scale
                barred = forbidden & ~(value + deltas
                                       < (level - _EPS)[:, None, None])
                deltas[barred] = np.inf
                low = flat.min(axis=1)
            else:
                low = free
            picks = (flat <= (low + _EPS)[:, None]).argmax(axis=1)
            chosen = flat[rows, picks].tolist()
            movers: List[int] = []
            stopped: List[int] = []
            for row, (start, delta, low_r, free_r) in enumerate(
                    zip(live, chosen, low.tolist(), free.tolist())):
                run = runs[start]
                run.evaluations += n_candidates
                if low_r == np.inf:
                    stopped.append(row)  # every move excluded
                    continue
                if free_r < delta - _EPS:
                    run.tabu_masked += 1
                if free_r >= -_EPS:
                    key = labels[row].tobytes()
                    if key not in canonical:
                        canonical[key] = Partition(labels[row]).canonical_key()
                    visits = run.local_min_counts
                    visits[canonical[key]] += 1
                    if visits[canonical[key]] >= self.local_min_repeats:
                        stopped.append(row)
                        continue
                if delta < -_EPS:
                    run.accepted += 1
                else:
                    run.uphill += 1
                movers.append(row)

            if movers:
                # QualityEvaluator.swap_delta_raw and .apply_swap, stacked.
                m = np.array(movers)
                a, b = np.divmod(picks[m], n)
                ca, cb = labels[m, a], labels[m, b]
                gained = (g[m, b, ca] + g[m, a, cb] - g[m, a, ca]
                          - g[m, b, cb] - 2.0 * ev.sq[a, b]).tolist()
                diff = (ev.sq[:, b] - ev.sq[:, a]).T
                g[m, :, ca] += diff
                g[m, :, cb] -= diff
                labels[m, a], labels[m, b] = cb, ca
                until[m, a, b] = it + 1 + self.tenure
                for row, step in zip(movers, gained):
                    run = runs[live[row]]
                    raw[row] += step
                    value = raw[row] / scale
                    run.iterations += 1
                    run.trace.append(value)
                    if value < run.best_value - _EPS:
                        run.best_value = value
                        run.best_labels = labels[row].copy()
            if stopped:
                if len(stopped) == len(live):
                    break
                keep = [row for row in range(len(live)) if row not in stopped]
                live = [live[row] for row in keep]
                raw = [raw[row] for row in keep]
                g, labels, until = g[keep], labels[keep], until[keep]

        return [
            SearchResult(
                best_partition=Partition(run.best_labels),
                best_value=run.best_value,
                method=self.name,
                iterations=run.iterations,
                evaluations=run.evaluations,
                trace=run.trace,
                restart_indices=[0],
                meta=self._params_meta(
                    local_min_visits=sum(run.local_min_counts.values()),
                    local_min_keys=list(run.local_min_counts),
                    accepted=run.accepted,
                    uphill=run.uphill,
                    tabu_masked=run.tabu_masked,
                ),
            )
            for run in runs
        ]

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


class _Start:
    """The running totals of one lockstep start."""

    def __init__(self, value: float, labels: np.ndarray):
        self.best_value = value
        self.best_labels = labels.copy()
        self.trace = [value]
        self.local_min_counts: Counter = Counter()
        self.iterations = self.evaluations = 0
        self.accepted = self.uphill = self.tabu_masked = 0


__all__ = ["TabuSearch"]
