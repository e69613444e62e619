"""Simulator configuration.

Defaults follow the standard Duato-school evaluation setup of the paper's
era: 16-flit messages, small (2-flit) channel buffers, 1 flit/cycle links,
one injection channel per workstation and one delivery channel per
workstation port (so a switch drains up to ``hosts_per_switch`` messages
at once), adaptive selection among the legal shortest up*/down* output
ports with random arbitration.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.util.validation import check_positive

#: Engine names accepted by ``SimulationConfig.engine``.
#: ``reference``/``fast`` are bit-identical to each other; ``vector`` is
#: deterministic per seed but only statistically equivalent (see
#: :mod:`repro.simulation.equivalence`).
ENGINE_NAMES = ("reference", "fast", "vector")

#: The subset of :data:`ENGINE_NAMES` under the bit-identical contract.
BIT_IDENTICAL_ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the wormhole simulator.

    Attributes
    ----------
    message_length:
        Flits per message (header included).
    buffer_flits:
        FIFO buffer capacity of every channel, in flits.
    virtual_channels:
        Virtual channels multiplexed on every physical inter-switch link
        (each with its own ``buffer_flits`` FIFO; the link still moves at
        most 1 flit/cycle).  The paper's setting is 1; >1 reduces
        head-of-line blocking and is exercised by the VC ablation bench.
        Only the reference engine models more than one: a multi-VC run
        always executes on ``"reference"``, whatever ``engine`` says.
    adaptive:
        ``True``: the header may take any free legal shortest output port
        (selected uniformly at random); ``False``: deterministic routing —
        always the first legal port.
    warmup_cycles / measure_cycles:
        Cycles discarded before measurement / measured.
    queue_capacity:
        Pending messages a host can hold; arrivals are postponed (source
        throttled) when full, which bounds memory in deep saturation.
    record_trace:
        Record one ``(cycle, src_host, dst_host, length)`` tuple per
        generated message in ``simulator.trace``: the per-message trace
        that the engine-parity and arbitration tests compare across
        engines.  Off by default: a saturated run generates many
        messages.
    seed:
        Seed of the simulator's own RNG (arrival times, destination draws,
        arbitration coin flips).
    engine:
        Which engine executes the model, in two contract tiers.  The
        bit-identical tier is ``"fast"`` (the struct-of-arrays kernel
        with quiescence skipping, the default) and ``"reference"`` (the
        per-``Message`` model in :mod:`repro.simulation.network`, the
        oracle): same RNG draw order, same :class:`SimulationResult`
        payload for every seed, so the choice between them is purely a
        performance knob; the parity suite
        (``tests/simulation/test_engine_parity.py``) enforces it.  The
        statistical tier is ``"vector"`` (the numpy-vectorized
        many-seed kernel in :mod:`repro.simulation.engine_vector`): it
        is opt-in and relaxes the contract to *statistical
        equivalence* — deterministic per seed, same latency/throughput
        distributions, different draw order (enforced by
        ``tests/simulation/test_engine_equivalence.py``).  With
        ``virtual_channels > 1`` every name runs the reference engine, so
        such a result's ``meta["engine"]`` reads ``"reference"`` (a key
        :func:`~repro.simulation.engine.canonical_payload` excludes).
    """

    message_length: int = 16
    buffer_flits: int = 2
    virtual_channels: int = 1
    adaptive: bool = True
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    queue_capacity: int = 16
    record_trace: bool = False
    seed: int = 0
    engine: str = "fast"

    def __post_init__(self):
        check_positive(self.message_length, "message_length")
        check_positive(self.buffer_flits, "buffer_flits")
        check_positive(self.virtual_channels, "virtual_channels")
        if self.warmup_cycles < 0:
            raise ValueError(f"warmup_cycles must be >= 0, got {self.warmup_cycles}")
        check_positive(self.measure_cycles, "measure_cycles")
        check_positive(self.queue_capacity, "queue_capacity")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}"
            )


__all__ = ["BIT_IDENTICAL_ENGINES", "ENGINE_NAMES", "SimulationConfig"]
