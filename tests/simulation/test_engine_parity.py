"""Bit-identical parity between the reference and fast engines.

The struct-of-arrays kernel (:mod:`repro.simulation.engine_fast`)
promises the *same* :class:`~repro.simulation.metrics.SimulationResult`
payload as the readable reference engine (the oracle) for every
configuration — same RNG draw order, same arbitration decisions, same
statistics, down to the last float.
:func:`repro.simulation.engine.canonical_payload` strips only the
engine-dependent wall-time/observability counters before comparison.

Three layers of evidence, each run two-way:

- a deterministic 48-scenario matrix (3 irregular topologies ×
  {adaptive, deterministic} × {1, 2} virtual channels × 2 seeds ×
  2 injection rates);
- a Hypothesis property over randomly drawn topologies and configs;
- targeted regressions: long messages (worm tail spans many channels,
  exercising the O(1) tail release), stepwise execution with invariant
  checks, and trace recording.

``make_simulator`` runs every ``virtual_channels > 1`` config on the
reference engine, so the two-VC cases compare the oracle with itself;
they stay as a guard on that routing.  :class:`TestEngineSelection` pins
the routing down directly.

The ``vector`` engine is outside this contract; its statistical
equivalence lives in ``test_engine_equivalence.py``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.sinks import MemorySink
from repro.obs.trace import Tracer, use_tracer
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import canonical_payload, make_simulator
from repro.simulation.engine_fast import FastWormholeNetworkSimulator
from repro.simulation.network import WormholeNetworkSimulator
from repro.simulation.traffic import IntraClusterTraffic, UniformTraffic
from repro.topology.designed import ring_topology
from repro.topology.irregular import random_irregular_topology

ENGINES = ("reference", "fast")


def _run_all(table, make_traffic, rate, cfg):
    """Run both engines on identical inputs -> name -> payload."""
    payloads = {}
    for engine in ENGINES:
        sim = make_simulator(table, make_traffic(), rate,
                             replace(cfg, engine=engine))
        payloads[engine] = canonical_payload(sim.run())
    return payloads


def _assert_identical(ref_payload, other_payload, context="", label="fast"):
    if ref_payload != other_payload:
        diffs = [
            f"  {k}: ref={ref_payload[k]!r} {label}={other_payload.get(k)!r}"
            for k in ref_payload
            if ref_payload[k] != other_payload.get(k)
        ]
        pytest.fail(f"engine divergence {context}\n" + "\n".join(diffs))


def _assert_parity(payloads, context=""):
    """The fast payload must equal the reference's, byte for byte."""
    _assert_identical(payloads["reference"], payloads["fast"], context)


def _small_table(topo_seed):
    topo = random_irregular_topology(8, degree=3, hosts_per_switch=2,
                                     seed=topo_seed)
    return topo, RoutingTable(UpDownRouting(topo))


# --------------------------------------------------------------------- #
# deterministic matrix
# --------------------------------------------------------------------- #


class TestParityMatrix:
    """3 topologies × 2 routing modes × 2 VC counts × 2 seeds × 2 rates."""

    @pytest.mark.parametrize("topo_seed", [11, 23, 37])
    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("vcs", [1, 2])
    def test_payloads_identical(self, topo_seed, adaptive, vcs):
        topo, table = _small_table(topo_seed)
        for seed in (0, 3):
            for rate in (0.002, 0.02):
                cfg = SimulationConfig(
                    message_length=16, buffer_flits=2,
                    virtual_channels=vcs, adaptive=adaptive,
                    warmup_cycles=200, measure_cycles=800, seed=seed,
                )
                payloads = _run_all(
                    table, lambda: UniformTraffic(topo), rate, cfg)
                _assert_parity(
                    payloads,
                    f"(topo={topo_seed} adaptive={adaptive} vcs={vcs} "
                    f"seed={seed} rate={rate})",
                )

    def test_intracluster_traffic_parity(self, rtable16, topo16, workload16):
        """The paper's actual traffic pattern, on the paper's network."""
        from repro.core.mapping import partition_to_mapping, random_partition

        part = random_partition([4] * 4, 16, seed=5)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(message_length=16, buffer_flits=2,
                               warmup_cycles=300, measure_cycles=1200,
                               seed=7)
        payloads = _run_all(
            rtable16, lambda: IntraClusterTraffic(mapping), 0.01, cfg)
        _assert_parity(payloads, "(intracluster, 16-switch)")
        assert payloads["reference"]["messages_completed"] > 0


# --------------------------------------------------------------------- #
# hypothesis property
# --------------------------------------------------------------------- #


@st.composite
def parity_scenarios(draw):
    topo_seed = draw(st.integers(0, 10_000))
    num_switches = draw(st.sampled_from([6, 8, 10]))
    topo = random_irregular_topology(
        num_switches, degree=3, hosts_per_switch=2, seed=topo_seed)
    cfg = SimulationConfig(
        message_length=draw(st.sampled_from([4, 16, 64])),
        buffer_flits=draw(st.sampled_from([1, 2, 4])),
        virtual_channels=draw(st.sampled_from([1, 2])),
        adaptive=draw(st.booleans()),
        warmup_cycles=100,
        measure_cycles=400,
        seed=draw(st.integers(0, 10_000)),
    )
    rate = draw(st.sampled_from([0.002, 0.01, 0.03]))
    return topo, cfg, rate


@given(parity_scenarios())
@settings(max_examples=25, deadline=None)
def test_parity_property(scenario):
    """Random topology × config × seed ⇒ identical payloads (ISSUE tentpole)."""
    topo, cfg, rate = scenario
    table = RoutingTable(UpDownRouting(topo))
    payloads = _run_all(table, lambda: UniformTraffic(topo), rate, cfg)
    _assert_parity(payloads, f"(hypothesis: {cfg!r}, rate={rate})")


# --------------------------------------------------------------------- #
# targeted regressions
# --------------------------------------------------------------------- #


class TestLongMessages:
    """Worm tails spanning many channels (the O(1) tail-release path).

    With ``message_length >> buffer_flits`` a delivered worm's tail drains
    one channel per cycle for hundreds of cycles; the reference engine
    releases each channel with a deque ``popleft`` and the array kernels
    with sealed-drain events.  Both must agree exactly.
    """

    @pytest.mark.parametrize("vcs", [1, 2])
    def test_long_message_parity_ring(self, vcs):
        topo = ring_topology(6)
        table = RoutingTable(UpDownRouting(topo))
        cfg = SimulationConfig(message_length=256, buffer_flits=2,
                               virtual_channels=vcs,
                               warmup_cycles=0, measure_cycles=4000, seed=3)
        payloads = _run_all(
            table, lambda: UniformTraffic(topo), 0.0005, cfg)
        _assert_parity(payloads, f"(long messages, ring, vcs={vcs})")
        ref = payloads["reference"]
        assert ref["messages_completed"] >= 1
        # A 256-flit worm takes at least 256 cycles to drain.
        assert ref["avg_latency"] > 256

    def test_long_message_parity_irregular_contended(self):
        """Long worms + contention: blocked tails held across many switches."""
        topo, table = _small_table(101)
        cfg = SimulationConfig(message_length=128, buffer_flits=1,
                               warmup_cycles=100, measure_cycles=3000,
                               seed=9)
        payloads = _run_all(
            table, lambda: UniformTraffic(topo), 0.004, cfg)
        _assert_parity(payloads, "(long messages, contended)")
        assert payloads["reference"]["messages_completed"] >= 1


class TestStepwiseExecution:
    """step() must trace the same trajectory as run(), cycle by cycle."""

    @pytest.mark.parametrize("engine", ENGINES[1:])
    @pytest.mark.parametrize("vcs", [1, 2])
    def test_step_matches_run_with_invariants(self, engine, vcs):
        topo, table = _small_table(23)
        cfg = SimulationConfig(message_length=16, buffer_flits=2,
                               virtual_channels=vcs,
                               warmup_cycles=100, measure_cycles=400, seed=1)
        total = cfg.warmup_cycles + cfg.measure_cycles

        stepped = make_simulator(table, UniformTraffic(topo), 0.01,
                                 replace(cfg, engine=engine))
        for cycle in range(total):
            stepped.step()
            if cycle % 50 == 0:
                stepped.check_invariants()
        assert stepped.cycle == total

        ref = make_simulator(table, UniformTraffic(topo), 0.01,
                             replace(cfg, engine="reference"))
        ref_res = ref.run()
        _assert_identical(canonical_payload(ref_res),
                          canonical_payload(stepped._result()),
                          f"(stepwise, vcs={vcs})", label=engine)

    def test_reference_step_agrees_too(self):
        topo, table = _small_table(37)
        cfg = SimulationConfig(message_length=16, buffer_flits=2,
                               warmup_cycles=50, measure_cycles=300, seed=2)
        total = cfg.warmup_cycles + cfg.measure_cycles
        ref = make_simulator(table, UniformTraffic(topo), 0.015,
                             replace(cfg, engine="reference"))
        for cycle in range(total):
            ref.step()
            if cycle % 50 == 0:
                ref.check_invariants()
        res = make_simulator(table, UniformTraffic(topo), 0.015,
                             replace(cfg, engine="fast")).run()
        _assert_identical(canonical_payload(ref._result()),
                          canonical_payload(res), "(reference stepwise)")


class TestTraceParity:
    def test_recorded_traces_identical(self):
        """record_trace=True must yield the same (cycle, src, dst, flits)."""
        topo, table = _small_table(11)
        cfg = SimulationConfig(message_length=16, buffer_flits=2,
                               warmup_cycles=100, measure_cycles=500,
                               seed=4, record_trace=True)
        sims = {
            engine: make_simulator(table, UniformTraffic(topo), 0.01,
                                   replace(cfg, engine=engine))
            for engine in ENGINES
        }
        for sim in sims.values():
            sim.run()
        ref_trace = list(sims["reference"].trace)
        assert len(ref_trace) > 0
        assert list(sims["fast"].trace) == ref_trace


class TestTracingInertness:
    """Telemetry must not perturb results: tracing on ≡ tracing off.

    The ISSUE's hard constraint — spans/events/metrics never touch any
    RNG stream or canonical payload — checked over the same topology ×
    engine × seed × rate grid as the parity matrix.
    """

    @pytest.mark.parametrize("topo_seed", [11, 23, 37])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_results_bit_identical_with_tracing(self, topo_seed, engine):
        topo, table = _small_table(topo_seed)
        for seed in (0, 3):
            for rate in (0.002, 0.02):
                cfg = SimulationConfig(
                    message_length=16, buffer_flits=2,
                    warmup_cycles=200, measure_cycles=800,
                    seed=seed, engine=engine,
                )
                plain = make_simulator(table, UniformTraffic(topo),
                                       rate, cfg).run()
                sink = MemorySink()
                with use_tracer(Tracer(sink)), use_registry(MetricsRegistry()):
                    traced = make_simulator(table, UniformTraffic(topo),
                                            rate, cfg).run()
                context = f"(topo={topo_seed} engine={engine} " \
                          f"seed={seed} rate={rate})"
                _assert_identical(canonical_payload(plain),
                                  canonical_payload(traced),
                                  "tracing on vs off " + context)
                # Engine-dependent meta must match too: same engine.
                assert plain.meta == traced.meta, context
                assert sink.by_name("engine.run"), "span was recorded"

    def test_traced_run_fills_registry_without_changing_perf_fields(self):
        topo, table = _small_table(11)
        cfg = SimulationConfig(message_length=16, buffer_flits=2,
                               warmup_cycles=100, measure_cycles=500,
                               seed=4, engine="fast")
        registry = MetricsRegistry()
        with use_registry(registry):
            res = make_simulator(table, UniformTraffic(topo),
                                 0.01, cfg).run()
        snap = registry.snapshot()
        assert snap["counters"]["engine.fast.runs"] == 1.0
        assert snap["counters"]["engine.fast.arb_requests"] == float(
            res.meta["arb_requests"])
        # Old fields remain the source of truth; the registry is a view.
        assert set(res.perf) == {"arrivals_seconds", "injection_seconds",
                                 "arbitration_seconds", "flit_move_seconds"}
        assert snap["histograms"]["engine.fast.arbitration_seconds"][
            "count"] == 1


class TestObservability:
    """Array-kernel results must carry the perf/observability counters."""

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_meta_counters(self, engine):
        topo, table = _small_table(11)
        cfg = SimulationConfig(message_length=16, buffer_flits=2,
                               warmup_cycles=100, measure_cycles=500, seed=4)
        sim = make_simulator(table, UniformTraffic(topo), 0.005,
                             replace(cfg, engine=engine))
        res = sim.run()
        meta = res.meta
        assert meta["engine"] == engine
        assert meta["cycles_executed"] + meta["cycles_skipped"] == 600
        assert 0.0 <= meta["arb_conflict_rate"] <= 1.0
        for key in ("arrivals_seconds", "injection_seconds",
                    "arbitration_seconds", "flit_move_seconds"):
            assert res.perf[key] >= 0.0

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_quiescence_skips_at_low_rate(self, engine):
        """At a trickle rate most cycles are provably idle and skipped."""
        topo, table = _small_table(23)
        cfg = SimulationConfig(message_length=4, buffer_flits=2,
                               warmup_cycles=0, measure_cycles=5000, seed=1)
        sim = make_simulator(table, UniformTraffic(topo), 0.0002,
                             replace(cfg, engine=engine))
        res = sim.run()
        assert res.meta["cycles_skipped"] > 0
        assert res.meta["cycles_executed"] < 5000


class TestEngineSelection:
    """``make_simulator`` is the one place mapping (engine, VCs) to a class."""

    @pytest.mark.parametrize("engine", ["fast", "vector"])
    def test_multi_vc_builds_the_reference_engine(self, engine):
        topo, table = _small_table(11)
        cfg = SimulationConfig(virtual_channels=2, engine=engine)
        sim = make_simulator(table, UniformTraffic(topo), 0.01, cfg)
        assert type(sim) is WormholeNetworkSimulator

    def test_multi_vc_run_reports_the_reference_engine(self):
        topo, table = _small_table(11)
        cfg = SimulationConfig(virtual_channels=2, engine="fast",
                               warmup_cycles=50, measure_cycles=200)
        res = make_simulator(table, UniformTraffic(topo), 0.01, cfg).run()
        assert res.meta["engine"] == "reference"

    def test_fast_kernel_rejects_multi_vc(self):
        topo, table = _small_table(11)
        with pytest.raises(ValueError, match="virtual_channels"):
            FastWormholeNetworkSimulator(
                table, UniformTraffic(topo), 0.01,
                SimulationConfig(virtual_channels=2))
