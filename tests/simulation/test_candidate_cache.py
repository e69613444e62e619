"""Regression tests: routing-candidate stores live on the RoutingTable.

PR 8 moved the per-slot routing-candidate structures off the engine
instances and onto the :class:`RoutingTable` (``candidate_cache`` for the
scalar kernel, ``engine_cache`` for the vector kernel's dense arrays).  These tests pin the sharing down by object identity — two
engines on one table must reuse ONE store, not rebuild per
instantiation — and check the stores stay out of pickled pool jobs.
"""

from __future__ import annotations

import pickle

from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import make_simulator
from repro.simulation.engine_vector import _VectorCore
from repro.simulation.traffic import UniformTraffic
from repro.topology.irregular import random_irregular_topology

CFG = SimulationConfig(warmup_cycles=50, measure_cycles=200)


def _setup():
    topo = random_irregular_topology(8, degree=3, hosts_per_switch=2,
                                     seed=5)
    return topo, RoutingTable(UpDownRouting(topo))


def test_fast_engines_share_candidate_store_by_identity():
    topo, table = _setup()
    traffic = UniformTraffic(topo)
    a = make_simulator(table, traffic, 0.01, CFG)
    b = make_simulator(table, traffic, 0.02,
                       SimulationConfig(seed=3, warmup_cycles=50,
                                        measure_cycles=200))
    assert a._cand_cache is b._cand_cache
    assert a._cand_cache is table.candidate_cache(CFG.adaptive)


def test_second_engine_starts_with_a_warm_store():
    topo, table = _setup()
    traffic = UniformTraffic(topo)
    a = make_simulator(table, traffic, 0.02, CFG)
    a.run()
    filled = len(table.candidate_cache(CFG.adaptive))
    assert filled > 0  # the run populated (head, phase, dst) entries
    b = make_simulator(table, traffic, 0.02, CFG)
    # Same object, so the second engine sees every entry the first built.
    assert len(b._cand_cache) == filled


def test_vector_cores_share_dense_arrays_by_identity():
    topo, table = _setup()
    traffic = UniformTraffic(topo)
    a = _VectorCore(table, [(traffic, 0.01, CFG)])
    b = _VectorCore(table, [(traffic, 0.02, CFG), (traffic, 0.01, CFG)])
    # The padded numpy tables are built once per table per process.
    assert a.cand_cid is b.cand_cid
    assert a.cand_sw is b.cand_sw
    assert a.cand_ph is b.cand_ph
    assert a.cand_n is b.cand_n


def test_caches_are_dropped_from_pickled_tables():
    topo, table = _setup()
    traffic = UniformTraffic(topo)
    make_simulator(table, traffic, 0.02, CFG).run()
    _VectorCore(table, [(traffic, 0.01, CFG)])
    assert table.__dict__.get("_engine_caches")
    clone = pickle.loads(pickle.dumps(table))
    # Pool jobs arrive lean and rebuild lazily on first use.
    assert "_engine_caches" not in clone.__dict__
    assert clone.candidate_cache(CFG.adaptive) == {}
