"""The shared wormhole-engine interface, perf instrumentation and factory.

Three engines implement the same cycle-level semantics, in two contract
tiers.  The bit-identical tier:

- ``"reference"`` — :class:`repro.simulation.network.WormholeNetworkSimulator`,
  the readable per-``Message`` model that defines the behaviour (the
  oracle);
- ``"fast"``      — :class:`repro.simulation.engine_fast.FastWormholeNetworkSimulator`,
  a struct-of-arrays kernel with quiescence skipping that is **bit-identical**
  to the reference: same RNG draw order, same
  :class:`~repro.simulation.metrics.SimulationResult` payload for every seed.

The statistical tier:

- ``"vector"``    — :mod:`repro.simulation.engine_vector`, the many-seed
  kernel: numpy arrays with a leading replication axis advance a whole
  batch of seeds/rates at once.  Deterministic per seed but only
  statistically equivalent to the bit-identical tier
  (:mod:`repro.simulation.equivalence`).  ``make_simulator`` builds a
  batch-of-one view; callers with several compatible replications
  pending use :func:`repro.simulation.engine_vector.simulate_batch_vector`.

:func:`make_simulator` dispatches on ``SimulationConfig.engine``; everything
downstream (load sweeps, saturation probes, the figure drivers, the CLI)
goes through it, so one config field switches the whole evaluation stack.
Multi-VC configurations (``virtual_channels > 1``, an extension beyond the
paper) always run on the reference engine: the ``fast`` and ``vector``
kernels model one virtual channel per link.

Observability: every engine fills an :class:`EnginePerf` — per-phase wall
times, skipped-cycle counts and arbitration conflict counters.  Wall times
land on ``SimulationResult.perf`` (excluded from equality comparisons);
deterministic counters land in ``SimulationResult.meta`` so parity checks
can assert the engines agree on *behaviour*, not just on headline numbers.
:func:`canonical_payload` produces the engine-independent view of a result
used by the parity suite and the engine benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Protocol, runtime_checkable

from repro.obs import metrics as _metrics
from repro.simulation.config import (
    BIT_IDENTICAL_ENGINES,
    ENGINE_NAMES,
    SimulationConfig,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.traffic import TrafficPattern


@dataclass
class EnginePerf:
    """Per-run engine instrumentation.

    Wall-time fields (``*_seconds``) measure where the simulation spends
    its time; they vary run to run and never participate in result
    equality.  The remaining counters are deterministic functions of the
    seed and configuration: a bit-identical pair of engines must agree on
    every one of them except ``cycles_skipped``/``cycles_executed`` (the
    fast engine executes fewer cycles because quiescent stretches are
    jumped over — the *simulated* cycle count is still identical).
    """

    arrivals_seconds: float = 0.0
    injection_seconds: float = 0.0
    arbitration_seconds: float = 0.0
    flit_move_seconds: float = 0.0
    cycles_executed: int = 0
    cycles_skipped: int = 0
    arb_requests: int = 0       # channel requests granted-or-contended
    arb_conflicts: int = 0      # channel requests with >1 contending header
    delivery_conflicts: int = 0  # delivery rounds that had to shuffle

    @property
    def arb_conflict_rate(self) -> float:
        """Fraction of channel-request rounds contended by several headers."""
        if self.arb_requests == 0:
            return 0.0
        return self.arb_conflicts / self.arb_requests

    def wall_times(self) -> Dict[str, float]:
        """The volatile (timing) fields, for ``SimulationResult.perf``."""
        return {
            "arrivals_seconds": self.arrivals_seconds,
            "injection_seconds": self.injection_seconds,
            "arbitration_seconds": self.arbitration_seconds,
            "flit_move_seconds": self.flit_move_seconds,
        }

    def meta_counters(self) -> Dict[str, Any]:
        """The deterministic fields, for ``SimulationResult.meta``."""
        return {
            "cycles_executed": self.cycles_executed,
            "cycles_skipped": self.cycles_skipped,
            "arb_requests": self.arb_requests,
            "arb_conflicts": self.arb_conflicts,
            "arb_conflict_rate": self.arb_conflict_rate,
            "delivery_conflicts": self.delivery_conflicts,
        }


@runtime_checkable
class NetworkEngine(Protocol):
    """What the rest of the package relies on from a wormhole engine.

    Both engines also share the constructor signature
    ``(routing_table, traffic, injection_rate, config)``.
    """

    ENGINE_NAME: str
    config: SimulationConfig
    cycle: int
    generated: int
    trace: list
    perf: EnginePerf

    def step(self) -> None:
        """Advance exactly one cycle (no quiescence skipping)."""
        ...

    def run(self) -> SimulationResult:
        """Run warmup + measurement and return the measured point."""
        ...

    def check_invariants(self) -> None:
        """Verify conservation/exclusivity invariants; raise on violation."""
        ...


def make_simulator(routing_table, traffic: TrafficPattern,
                   injection_rate: float,
                   config: SimulationConfig = SimulationConfig()):
    """Build the engine selected by ``config.engine``.

    The returned object satisfies :class:`NetworkEngine`.  Results are
    bit-identical across the ``reference``/``fast`` engines, so within
    that tier the choice is purely a performance knob; the opt-in
    ``vector`` engine is deterministic per seed but relaxes the contract
    to statistical equivalence (validated by the equivalence suite) in
    exchange for numpy vectorization across replications.

    This is the one place that maps ``(engine, virtual_channels)`` to a
    class: the ``fast`` and ``vector`` kernels model one virtual channel
    per link, so any ``virtual_channels > 1`` config runs on the
    reference engine whatever ``engine`` says (its ``meta["engine"]``
    then reads ``"reference"``).
    """
    if config.engine == "reference" or config.virtual_channels > 1:
        from repro.simulation.network import WormholeNetworkSimulator

        return WormholeNetworkSimulator(routing_table, traffic,
                                        injection_rate, config)
    if config.engine == "fast":
        from repro.simulation.engine_fast import FastWormholeNetworkSimulator

        return FastWormholeNetworkSimulator(routing_table, traffic,
                                            injection_rate, config)
    if config.engine == "vector":
        from repro.simulation.engine_vector import (
            VectorWormholeNetworkSimulator,
        )

        return VectorWormholeNetworkSimulator(routing_table, traffic,
                                              injection_rate, config)
    raise ValueError(
        f"unknown engine {config.engine!r}; expected one of {ENGINE_NAMES}"
    )


def record_engine_metrics(result: SimulationResult) -> None:
    """Fold one finished run's perf/meta into the active metrics registry.

    Registers ``engine.<name>.{runs,cycles_executed,cycles_skipped,
    arb_requests,arb_conflicts,delivery_conflicts}`` counters and
    ``engine.<name>.<phase>_seconds`` wall-time histograms.  The existing
    ``SimulationResult.perf``/``meta`` fields are unchanged — the registry
    is an aggregated *view* over them, and the whole call is a no-op
    when telemetry is off.
    """
    if _metrics.current_registry() is None:
        return
    name = result.meta.get("engine", "unknown")
    prefix = f"engine.{name}"
    _metrics.inc(f"{prefix}.runs")
    for key in ("cycles_executed", "cycles_skipped", "arb_requests",
                "arb_conflicts", "delivery_conflicts"):
        value = result.meta.get(key)
        if value is not None:
            _metrics.inc(f"{prefix}.{key}", float(value))
    for key, seconds in (result.perf or {}).items():
        _metrics.observe(f"{prefix}.{key}", float(seconds))


# Meta keys that legitimately differ between bit-identical engines.
_ENGINE_DEPENDENT_META = ("engine", "cycles_executed", "cycles_skipped")


def canonical_payload(result: SimulationResult) -> Dict[str, Any]:
    """The engine-independent view of a result, for parity comparison.

    Includes every measured quantity and every deterministic meta counter;
    excludes wall times (``result.perf``) and the meta keys that identify
    the engine or its cycle-skipping behaviour.  Two engines are
    *bit-identical* exactly when this payload matches for every seed.
    """
    meta = {k: v for k, v in result.meta.items()
            if k not in _ENGINE_DEPENDENT_META}
    return {
        "offered": result.offered_flits_per_switch_cycle,
        "accepted": result.accepted_flits_per_switch_cycle,
        "avg_latency": result.avg_latency,
        "latency": (result.latency.count, result.latency._mean,
                    result.latency._m2, result.latency._min,
                    result.latency._max),
        "total_latency": (result.total_latency.count,
                          result.total_latency._mean,
                          result.total_latency._m2,
                          result.total_latency._min,
                          result.total_latency._max),
        "latency_percentiles": result.latency_percentiles,
        "messages_completed": result.messages_completed,
        "messages_generated": result.messages_generated,
        "flits_consumed_measured": result.flits_consumed_measured,
        "cycles_measured": result.cycles_measured,
        "warmup_cycles": result.warmup_cycles,
        "meta": meta,
    }


__all__ = [
    "ENGINE_NAMES",
    "BIT_IDENTICAL_ENGINES",
    "EnginePerf",
    "NetworkEngine",
    "make_simulator",
    "record_engine_metrics",
    "canonical_payload",
]
