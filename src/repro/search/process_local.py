"""Process-level mapping refinement (beyond the paper's assumptions).

The paper simplifies to one process per processor with every logical
cluster filling whole switches, which collapses scheduling to a switch
partition.  Its future work lifts those assumptions; this module provides
the corresponding optimizer:

- the objective is the *weighted* quadratic communication cost of
  :func:`repro.core.quality.weighted_mapping_cost` — arbitrary symmetric
  process×process intensity matrices, arbitrary cluster sizes;
- the search state is a full process→host assignment (one process per
  host, hosts may be left empty);
- moves are process-pair host swaps and moves onto free hosts, evaluated
  in O(1) via an incremental gain matrix, applied via steepest descent
  with multi-start (the same design philosophy as the paper's Tabu, on
  the finer-grained space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.mapping import ProcessMapping, Workload
from repro.core.quality import TableLike, _as_squared
from repro.search.base import _EPS
from repro.topology.graph import Topology
from repro.util.rng import SeedLike, as_rng, spawn_rngs


def default_weights(workload: Workload) -> np.ndarray:
    """The paper's implicit weight matrix, generalized.

    ``W[p, q] = w_p * w_q`` for processes in the same logical cluster
    (each cluster's ``comm_weight``), 0 across clusters; zero diagonal.
    """
    cluster_ids = []
    wvec = []
    for ci, c in enumerate(workload.clusters):
        cluster_ids += [ci] * c.num_processes
        wvec += [c.comm_weight] * c.num_processes
    ids = np.asarray(cluster_ids)
    w = np.asarray(wvec, dtype=float)
    same = ids[:, None] == ids[None, :]
    weights = np.where(same, w[:, None] * w[None, :], 0.0)
    np.fill_diagonal(weights, 0.0)
    return weights


def random_process_mapping(workload: Workload, topology: Topology,
                           seed: SeedLike = None) -> ProcessMapping:
    """A uniformly random one-process-per-host assignment.

    Unlike :func:`repro.core.mapping.partition_to_mapping` this does *not*
    require switch purity or cluster sizes divisible by the hosts per
    switch — it is the natural starting point for process-level search.
    """
    total = workload.total_processes
    if total > topology.num_hosts:
        raise ValueError(
            f"workload has {total} processes, machine only "
            f"{topology.num_hosts} hosts"
        )
    rng = as_rng(seed)
    hosts = rng.permutation(topology.num_hosts)[:total]
    mapping = ProcessMapping(workload, topology)
    k = 0
    for ci, c in enumerate(workload.clusters):
        for pi in range(c.num_processes):
            mapping.host_of[(ci, pi)] = int(hosts[k])
            k += 1
    mapping.validate()
    return mapping


@dataclass
class ProcessSearchResult:
    """Outcome of a process-level optimization run."""

    mapping: ProcessMapping
    cost: float
    initial_cost: float
    iterations: int
    evaluations: int


class ProcessMappingOptimizer:
    """Steepest-descent refinement of a process→host mapping.

    Parameters
    ----------
    table:
        Switch-level distance table (the cost uses ``T²``).
    workload, topology:
        Define the process set and the machine.
    weights:
        Symmetric process×process intensity matrix; defaults to the
        intracluster product weights of :func:`default_weights`.
    """

    def __init__(self, table: TableLike, workload: Workload,
                 topology: Topology,
                 weights: Optional[np.ndarray] = None):
        self.sq = _as_squared(table)
        if self.sq.shape[0] != topology.num_switches:
            raise ValueError(
                f"table covers {self.sq.shape[0]} switches, topology has "
                f"{topology.num_switches}"
            )
        self.workload = workload
        self.topology = topology
        self.num_processes = workload.total_processes
        w = default_weights(workload) if weights is None else \
            np.asarray(weights, dtype=float)
        if w.shape != (self.num_processes, self.num_processes):
            raise ValueError(
                f"weights must be {self.num_processes}x{self.num_processes}, "
                f"got {w.shape}"
            )
        if not np.allclose(w, w.T):
            raise ValueError("weights must be symmetric")
        self.weights = w.copy()
        np.fill_diagonal(self.weights, 0.0)
        self._proc_keys = [
            (ci, pi)
            for ci, c in enumerate(workload.clusters)
            for pi in range(c.num_processes)
        ]

    # ------------------------------------------------------------------ #

    def cost_of(self, mapping: ProcessMapping) -> float:
        """Weighted quadratic cost of a mapping (brute-force reference)."""
        s = self._switch_vector(mapping)
        return 0.5 * float(
            np.einsum("pq,pq->", self.weights, self.sq[np.ix_(s, s)])
        )

    def optimize(self, initial: Optional[ProcessMapping] = None,
                 *, seed: SeedLike = None, restarts: int = 3,
                 max_iterations: int = 400) -> ProcessSearchResult:
        """Multi-start steepest descent; returns the best mapping found."""
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        rngs = spawn_rngs(seed, restarts)
        best: Optional[Tuple[float, np.ndarray, np.ndarray]] = None
        initial_cost = None
        total_iter = 0
        total_evals = 0

        for r, rng in enumerate(rngs):
            if r == 0 and initial is not None:
                mapping = initial
            else:
                mapping = random_process_mapping(
                    self.workload, self.topology,
                    seed=int(rng.integers(1 << 31)),
                )
            hosts = np.array(
                [mapping.host_of[k] for k in self._proc_keys], dtype=int
            )
            cost, iters, evals = self._descend(hosts, max_iterations)
            total_iter += iters
            total_evals += evals
            if initial_cost is None:
                initial_cost = self.cost_of(mapping)
            if best is None or cost < best[0] - _EPS:
                best = (cost, hosts.copy(), None)

        assert best is not None and initial_cost is not None
        out = ProcessMapping(self.workload, self.topology)
        for k, h in zip(self._proc_keys, best[1]):
            out.host_of[k] = int(h)
        out.validate()
        return ProcessSearchResult(
            mapping=out,
            cost=best[0],
            initial_cost=initial_cost,
            iterations=total_iter,
            evaluations=total_evals,
        )

    # ------------------------------------------------------------------ #

    def _switch_vector(self, mapping: ProcessMapping) -> np.ndarray:
        return np.array(
            [self.topology.host_switch(mapping.host_of[k])
             for k in self._proc_keys],
            dtype=int,
        )

    def _descend(self, hosts: np.ndarray,
                 max_iterations: int) -> Tuple[float, int, int]:
        """In-place steepest descent on the ``hosts`` vector."""
        topo = self.topology
        sq = self.sq
        w = self.weights
        p_count = hosts.size
        switches = np.array([topo.host_switch(int(h)) for h in hosts])
        # gain[p, s] = sum_q W[p,q] * sq[s, switch(q)]
        gain = w @ sq[:, switches].T          # (P, N)
        cost = 0.5 * float(np.einsum(
            "pq,pq->", w, sq[np.ix_(switches, switches)]
        ))
        used = set(int(h) for h in hosts)
        free_hosts = [h for h in range(topo.num_hosts) if h not in used]
        evals = 0

        for iteration in range(max_iterations):
            # Steepest swap between two processes.
            cur = gain[np.arange(p_count), switches]       # (P,)
            best_delta = 0.0
            best_move: Optional[Tuple[str, int, int]] = None

            # Vectorized swap deltas: D[p1, p2] for all pairs.
            g_here = cur[:, None]
            g_there = gain[:, switches]                     # gain[p1, s(p2)]
            pair_sq = sq[np.ix_(switches, switches)]
            deltas = (g_there - g_here) + (g_there.T - g_here.T) \
                + 2.0 * w * pair_sq
            np.fill_diagonal(deltas, 0.0)
            evals += p_count * p_count
            idx = int(np.argmin(deltas))
            p1, p2 = divmod(idx, p_count)
            if deltas[p1, p2] < best_delta - _EPS and \
                    switches[p1] != switches[p2]:
                best_delta = float(deltas[p1, p2])
                best_move = ("swap", p1, p2)

            # Moves to free hosts.
            if free_hosts:
                free_sw = np.array(
                    [topo.host_switch(h) for h in free_hosts]
                )
                move_deltas = gain[:, free_sw] - cur[:, None]  # (P, F)
                evals += move_deltas.size
                mi = int(np.argmin(move_deltas))
                mp, mf = divmod(mi, len(free_hosts))
                if move_deltas[mp, mf] < best_delta - _EPS:
                    best_delta = float(move_deltas[mp, mf])
                    best_move = ("move", mp, mf)

            if best_move is None:
                return cost, iteration, evals

            kind, a, b = best_move
            if kind == "swap":
                s1, s2 = int(switches[a]), int(switches[b])
                hosts[a], hosts[b] = hosts[b], hosts[a]
                switches[a], switches[b] = s2, s1
                # Rebuild the gain matrix; at P<=hosts it is cheap
                # (P^2 * N multiply) relative to the delta scan above.
                gain = w @ sq[:, switches].T
            else:
                old_h = int(hosts[a])
                new_h = free_hosts[b]
                s_old, s_new = int(switches[a]), topo.host_switch(new_h)
                hosts[a] = new_h
                switches[a] = s_new
                free_hosts[b] = old_h
                gain = w @ sq[:, switches].T
            cost += best_delta

        return cost, max_iterations, evals


__all__ = [
    "ProcessMappingOptimizer",
    "ProcessSearchResult",
    "default_weights",
    "random_process_mapping",
]
