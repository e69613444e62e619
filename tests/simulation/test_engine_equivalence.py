"""The vector engine's statistical-equivalence contract, exercised.

The vector engine is deterministic given ``(seed, engine)`` but draws
its RNG streams per replication instead of replaying the reference
engine's scalar draw order, so bit-identity against the
``reference``/``fast`` tier is impossible by design.  This suite pins
down what IS promised:

- determinism: same batch twice -> byte-identical canonical payloads;
- composition invariance: a member's payload does not depend on which
  other members share the lockstep arena (solo == batch == superset);
- statistical equivalence: across 32 seeds per (rate) point, mean
  latency and delivered throughput are indistinguishable from the
  bit-identical tier's under the combined Welch-t + CI-overlap rule
  of :mod:`repro.simulation.equivalence` (``fast`` runs as the
  reference side — it is bit-identical to ``reference``, so this is
  the cheapest faithful proxy);
- rank preservation: the paper's qualitative result (the OP mapping
  beats random mappings) survives the engine swap;
- multi-VC fallback: unsupported configurations run on the reference
  engine rather than on silently-different physics;
- batch compatibility: mixed routing tables or mixed virtual-channel
  counts fail loudly instead of silently desynchronizing.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.simulation import BIT_IDENTICAL_ENGINES, ENGINE_NAMES
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import canonical_payload, make_simulator
from repro.simulation.engine_vector import (
    BatchCompatibilityError,
    VectorWormholeNetworkSimulator,
    check_batch_compatible,
    simulate_batch_vector,
)
from repro.simulation.equivalence import (
    check_equivalence,
    check_rank_preservation,
)
from repro.simulation.traffic import IntraClusterTraffic, UniformTraffic
from repro.topology.irregular import random_irregular_topology

SEEDS = 32          # >= 30 per the contract
RATES = (0.004, 0.012, 0.024)   # low load, knee, past saturation
EQ_CONFIG = SimulationConfig(warmup_cycles=300, measure_cycles=1200)


@pytest.fixture(scope="module")
def net8():
    topo = random_irregular_topology(8, degree=3, hosts_per_switch=2,
                                     seed=5)
    return topo, RoutingTable(UpDownRouting(topo))


def _jobs(table, traffic, engine):
    return [
        (table, traffic, rate,
         replace(EQ_CONFIG, seed=seed, engine=engine))
        for rate in RATES for seed in range(SEEDS)
    ]


def _run_fast(jobs):
    """The bit-identical sample: each job run solo on the fast engine."""
    return [make_simulator(table, traffic, rate, cfg).run()
            for table, traffic, rate, cfg in jobs]


@pytest.fixture(scope="module")
def sample_grids(net8):
    """label -> metric -> per-seed samples, for both engine tiers."""
    topo, table = net8
    traffic = UniformTraffic(topo)
    vec = simulate_batch_vector(_jobs(table, traffic, "vector"))
    fast = _run_fast(_jobs(table, traffic, "fast"))
    grids = []
    for results in (vec, fast):
        grid = {}
        for i, rate in enumerate(RATES):
            chunk = results[i * SEEDS:(i + 1) * SEEDS]
            grid[f"rate={rate}"] = {
                "latency": [r.avg_latency for r in chunk],
                "throughput": [r.accepted_flits_per_switch_cycle
                               for r in chunk],
            }
        grids.append(grid)
    return grids


# --------------------------------------------------------------------- #
# the contract itself
# --------------------------------------------------------------------- #

def test_vector_statistically_equivalent(sample_grids):
    vec_grid, fast_grid = sample_grids
    report = check_equivalence(vec_grid, fast_grid)
    assert report.equivalent, report.summary()
    # The grid really covered every (rate, metric) point.
    assert len(report.points) == len(RATES) * 2


def test_equivalence_run_is_deterministic(sample_grids):
    vec_grid, fast_grid = sample_grids
    first = check_equivalence(vec_grid, fast_grid)
    second = check_equivalence(vec_grid, fast_grid)
    assert first.points == second.points


def test_vector_is_not_bit_identical_but_is_registered():
    # The two-tier contract as registry state: vector is a first-class
    # engine, but deliberately outside the bit-identical set.
    assert "vector" in ENGINE_NAMES
    assert "vector" not in BIT_IDENTICAL_ENGINES
    assert set(BIT_IDENTICAL_ENGINES) == {"reference", "fast"}


# --------------------------------------------------------------------- #
# determinism + composition invariance
# --------------------------------------------------------------------- #

def test_vector_deterministic_and_composition_invariant(net8):
    topo, table = net8
    traffic = UniformTraffic(topo)
    jobs = [(table, traffic, 0.01, replace(EQ_CONFIG, seed=s,
                                           engine="vector"))
            for s in range(3)]
    twice = [simulate_batch_vector(jobs) for _ in range(2)]
    solo = [simulate_batch_vector([j])[0] for j in jobs]
    superset = simulate_batch_vector(
        jobs + [(table, traffic, 0.02, replace(EQ_CONFIG, seed=9,
                                               engine="vector"))])[:3]
    for i in range(3):
        want = canonical_payload(twice[0][i])
        assert canonical_payload(twice[1][i]) == want
        assert canonical_payload(solo[i]) == want
        assert canonical_payload(superset[i]) == want


def test_vector_solo_wrapper_matches_batch(net8):
    topo, table = net8
    traffic = UniformTraffic(topo)
    cfg = replace(EQ_CONFIG, seed=4, engine="vector")
    solo = make_simulator(table, traffic, 0.012, cfg).run()
    batched = simulate_batch_vector([(table, traffic, 0.012, cfg)])[0]
    assert canonical_payload(solo) == canonical_payload(batched)


# --------------------------------------------------------------------- #
# rank preservation on the paper's 16-switch study
# --------------------------------------------------------------------- #

def test_op_mapping_outranks_randoms_on_both_engines():
    from repro.experiments.common import paper_16switch_setup

    setup = paper_16switch_setup()
    table = setup.routing_table
    records = [setup.op_mapping()] + setup.random_mappings(2)
    cfg = SimulationConfig(message_length=16, buffer_flits=2,
                           warmup_cycles=300, measure_cycles=1200)
    rate = 0.0108  # mid-load: mappings separate, none fully saturated
    n = 12

    def mean_latency(results):
        lats = [r.avg_latency for r in results]
        return sum(lats) / len(lats)

    scores = {}
    for engine, runner in (
        ("vector", simulate_batch_vector),
        ("fast", _run_fast),
    ):
        jobs = [
            (table, IntraClusterTraffic(rec.mapping), rate,
             replace(cfg, seed=seed, engine=engine))
            for rec in records for seed in range(n)
        ]
        results = runner(jobs)
        scores[engine] = {
            rec.name: mean_latency(results[i * n:(i + 1) * n])
            for i, rec in enumerate(records)
        }

    op = records[0].name
    for rec in records[1:]:
        contest_v = {k: scores["vector"][k] for k in (op, rec.name)}
        contest_f = {k: scores["fast"][k] for k in (op, rec.name)}
        ok, order_v, order_f = check_rank_preservation(
            contest_v, contest_f, higher_is_better=False)
        assert ok, (order_v, order_f, scores)
        assert order_v[0] == op, scores


# --------------------------------------------------------------------- #
# multi-VC fallback
# --------------------------------------------------------------------- #

def test_multi_vc_falls_back_to_bit_identical_kernel(net8):
    topo, table = net8
    traffic = UniformTraffic(topo)
    cfg = replace(EQ_CONFIG, seed=3, virtual_channels=2)
    vec = make_simulator(table, traffic, 0.012,
                         replace(cfg, engine="vector")).run()
    fast = make_simulator(table, traffic, 0.012,
                          replace(cfg, engine="fast")).run()
    assert canonical_payload(vec) == canonical_payload(fast)
    ref = make_simulator(table, traffic, 0.012,
                         replace(cfg, engine="reference")).run()
    batch = simulate_batch_vector(
        [(table, traffic, 0.012, replace(cfg, engine="vector"))])
    assert [canonical_payload(r) for r in batch] == [canonical_payload(ref)]


def test_multi_vc_batch_records_each_run_once(net8):
    topo, table = net8
    cfg = replace(EQ_CONFIG, seed=3, virtual_channels=2, engine="vector")
    registry = MetricsRegistry()
    with use_registry(registry):
        simulate_batch_vector([(table, UniformTraffic(topo), 0.012, cfg)])
    runs = {k: v for k, v in registry.snapshot()["counters"].items()
            if k.endswith(".runs")}
    assert runs == {"engine.reference.runs": 1.0}


def test_vector_class_rejects_multi_vc(net8):
    topo, table = net8
    with pytest.raises(ValueError, match="virtual_channels"):
        VectorWormholeNetworkSimulator(
            table, UniformTraffic(topo), 0.01,
            replace(EQ_CONFIG, virtual_channels=2))


# --------------------------------------------------------------------- #
# batch compatibility
# --------------------------------------------------------------------- #

def _vector_job(table, topo, seed, **kw):
    return (table, UniformTraffic(topo), 0.01,
            replace(EQ_CONFIG, seed=seed, engine="vector", **kw))


def test_empty_batch_rejected():
    with pytest.raises(BatchCompatibilityError, match="at least one"):
        simulate_batch_vector([])


def test_mixed_routing_tables_rejected(net8):
    topo_a, table_a = net8
    topo_b = random_irregular_topology(8, degree=3, hosts_per_switch=2,
                                       seed=6)
    table_b = RoutingTable(UpDownRouting(topo_b))
    with pytest.raises(BatchCompatibilityError,
                       match="share one RoutingTable"):
        simulate_batch_vector([_vector_job(table_a, topo_a, 1),
                               _vector_job(table_b, topo_b, 2)])


def test_same_topology_different_table_object_rejected(net8):
    """Even an equal table is rejected — sharing must be by identity."""
    topo, table = net8
    other = RoutingTable(UpDownRouting(topo))
    with pytest.raises(BatchCompatibilityError, match="job 1"):
        check_batch_compatible([_vector_job(table, topo, 1),
                                _vector_job(other, topo, 2)])


def test_mixed_virtual_channels_rejected(net8):
    topo, table = net8
    with pytest.raises(BatchCompatibilityError, match="virtual_channels"):
        simulate_batch_vector(
            [_vector_job(table, topo, 1, virtual_channels=1),
             _vector_job(table, topo, 2, virtual_channels=2)])
