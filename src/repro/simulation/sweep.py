"""Load sweeps and saturation estimation.

The paper simulates each mapping "from low traffic (simulation point S1)
to saturation (simulation point S9)".  :func:`make_load_points` builds such
a ladder of injection rates; :func:`run_load_sweep` executes it for one
mapping; :func:`find_saturation_rate` estimates the saturation rate by
bisection on the offered load.  It places S9 for Figures 3 and 5, which
read each mapping's throughput off its own ladder, and its deep-saturation
``throughput`` serves the ablation and extension benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.obs import trace as _trace
from repro.parallel import WorkersLike, parallel_map, resolve_workers
from repro.routing.tables import RoutingTable
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import make_simulator
from repro.simulation.metrics import SimulationResult
from repro.simulation.traffic import TrafficPattern
from repro.util.rng import derive_seed


@dataclass
class LoadPoint:
    """One sweep point: the offered rate and the measured result."""

    index: int                      # 1-based: S1 … S9
    rate: float                     # messages / cycle / host
    result: SimulationResult

    @property
    def label(self) -> str:
        return f"S{self.index}"


def make_load_points(max_rate: float, n: int = 9, min_fraction: float = 0.1) -> List[float]:
    """A ladder of ``n`` injection rates from low load to ``max_rate``.

    Linear spacing from ``min_fraction * max_rate`` — matching the paper's
    S1 (low traffic) … S9 (deep saturation) structure when ``max_rate`` is
    set slightly above the best mapping's saturation rate.
    """
    if max_rate <= 0:
        raise ValueError(f"max_rate must be > 0, got {max_rate}")
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    lo = max_rate * min_fraction
    step = (max_rate - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


_SweepJob = Tuple[RoutingTable, TrafficPattern, int, float, SimulationConfig]


def _simulate_point(job: _SweepJob) -> LoadPoint:
    """Run one sweep point (top-level so the process pool can pickle it).

    The engine is chosen by ``cfg.engine``; both engines produce the same
    payload for the same seed, so sweeps are engine-independent data.
    """
    table, traffic, index, rate, cfg = job
    sim = make_simulator(table, traffic, rate, cfg)
    return LoadPoint(index=index, rate=rate, result=sim.run())


def _simulate_chunk(jobs: Sequence[_SweepJob]) -> List[LoadPoint]:
    """Run a chunk of sweep points in one worker (one pickled job).

    The ``vector`` engine executes the whole chunk as a single
    ``simulate_batch_vector`` call; the bit-identical engines loop the
    points in-process.  Either way the per-point seeds are the ones
    ``run_load_sweep`` derived, so results are independent of the
    chunking.
    """
    if jobs[0][4].engine == "vector":
        from repro.simulation.engine_vector import simulate_batch_vector

        results = simulate_batch_vector(
            [(table, traffic, rate, cfg)
             for table, traffic, _i, rate, cfg in jobs])
        return [LoadPoint(index=i, rate=rate, result=res)
                for (_t, _tr, i, rate, _c), res in zip(jobs, results)]
    return [_simulate_point(job) for job in jobs]


def run_load_sweep(
    table: RoutingTable,
    traffic: TrafficPattern,
    rates: Sequence[float],
    config: SimulationConfig = SimulationConfig(),
    *,
    workers: WorkersLike = None,
) -> List[LoadPoint]:
    """Simulate every rate in ``rates`` with independent, derived seeds.

    Each point's seed is derived from ``config.seed`` and its 1-based index
    alone, so the points are independent simulations and can run on a
    ``workers``-wide process pool with results identical to the serial
    order (the default ``workers=None`` honours ``$REPRO_WORKERS``).

    Under an active tracer the sweep is wrapped in a ``sweep.load`` span
    and one ``sweep.point`` event is emitted per point — from the parent,
    after the (possibly pooled) map returns, so the event stream is the
    same for serial and parallel runs.

    With ``config.engine == "vector"`` the points are compatible
    replications of one network by construction, so a serial sweep runs
    the whole ladder as a single
    :func:`repro.simulation.engine_vector.simulate_batch_vector` call
    instead of point-at-a-time; the composition-invariant vector kernel
    gives the same per-point payloads either way, so this is purely a
    performance path.

    Parallel sweeps dispatch *chunks*: the jobs are dealt round-robin
    across ``workers`` chunks and each pool worker runs one chunk (a
    single ``simulate_batch_vector`` call for ``vector``, an in-process
    loop otherwise).  One pickled job per worker instead of one per
    point keeps pool overhead off the critical path; the per-point
    seeds are derived before chunking, so results are bit-identical to
    the serial order regardless of the chunk count.
    """
    jobs: List[_SweepJob] = [
        (table, traffic, i, rate,
         replace(config, seed=derive_seed(config.seed, "sweep", i)))
        for i, rate in enumerate(rates, start=1)
    ]
    n_workers = resolve_workers(workers)
    with _trace.span("sweep.load", points=len(jobs),
                     engine=config.engine) as sp:
        if n_workers <= 1:
            points = _simulate_chunk(jobs)
        else:
            n_chunks = min(n_workers, len(jobs))
            chunks = [jobs[k::n_chunks] for k in range(n_chunks)]
            chunked = parallel_map(_simulate_chunk, chunks,
                                   workers=n_workers)
            points = sorted((p for chunk in chunked for p in chunk),
                            key=lambda p: p.index)
        if _trace.current_tracer() is not None:
            for point in points:
                _trace.event(
                    "sweep.point", index=point.index, rate=point.rate,
                    accepted=point.result.accepted_flits_per_switch_cycle,
                    avg_latency=point.result.avg_latency,
                    saturated=point.result.saturated,
                )
        sp.set(saturated_points=sum(1 for p in points if p.result.saturated))
    return points


def find_saturation_rate(
    table: RoutingTable,
    traffic: TrafficPattern,
    config: SimulationConfig = SimulationConfig(),
    *,
    lo: float = 0.001,
    hi: float = 0.25,
    tolerance: float = 0.05,
    max_iterations: int = 12,
) -> Dict[str, float]:
    """Bisection estimate of the saturation point.

    Returns ``{"rate": r*, "throughput": accepted_at_saturation}`` where
    ``r*`` is the highest tested rate the network still accepts within 5 %
    of offered.  ``throughput`` is measured in one final run at ~1.5·r*
    (deep saturation).  The figures use only ``rate``, to place S9; the
    ablation and extension benchmarks compare ``throughput``.
    """
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")

    probes = 0

    def accepted_ratio(rate: float) -> SimulationResult:
        nonlocal probes
        probes += 1
        cfg = replace(config, seed=derive_seed(config.seed, "sat", int(rate * 1e7)))
        sim = make_simulator(table, traffic, rate, cfg)
        return sim.run()

    with _trace.span("sweep.saturation", engine=config.engine) as sp:
        # Grow hi until saturated (or give up and treat hi as unsaturable).
        res_hi = accepted_ratio(hi)
        grow = 0
        while not res_hi.saturated and grow < 6:
            lo = hi
            hi *= 1.8
            if hi > 1.0:
                hi = 1.0
                res_hi = accepted_ratio(hi)
                break
            res_hi = accepted_ratio(hi)
            grow += 1

        best_ok = lo
        for _ in range(max_iterations):
            if (hi - lo) / hi < tolerance:
                break
            mid = 0.5 * (lo + hi)
            res = accepted_ratio(mid)
            if res.saturated:
                hi = mid
            else:
                lo = mid
                best_ok = mid

        deep = accepted_ratio(min(1.0, 1.5 * hi))
        sp.set(probes=probes, rate=best_ok,
               throughput=deep.accepted_flits_per_switch_cycle)
    return {
        "rate": best_ok,
        "throughput": deep.accepted_flits_per_switch_cycle,
        "deep_rate": min(1.0, 1.5 * hi),
    }


__all__ = ["LoadPoint", "make_load_points", "run_load_sweep", "find_saturation_rate"]
