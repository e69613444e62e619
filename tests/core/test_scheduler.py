"""Tests for the CommunicationAwareScheduler facade."""

import pytest

from repro.core.mapping import Partition, Workload, partition_to_mapping
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.table import hop_distance_table
from repro.routing.minimal import MinimalRouting
from repro.routing.updown import UpDownRouting
from repro.search.random_search import RandomSearch
from repro.topology.irregular import random_irregular_topology


class TestConstruction:
    def test_defaults(self, topo16):
        s = CommunicationAwareScheduler(topo16)
        assert s.routing.name == "updown"
        assert s.table.kind == "equivalent"
        assert s.search.name == "tabu"

    def test_custom_routing(self, topo16):
        s = CommunicationAwareScheduler(topo16, routing=MinimalRouting(topo16))
        assert s.routing.name == "minimal"

    def test_routing_topology_mismatch_rejected(self, topo16):
        other = random_irregular_topology(16, seed=777)
        with pytest.raises(ValueError, match="different topology"):
            CommunicationAwareScheduler(topo16, routing=UpDownRouting(other))

    def test_table_size_mismatch_rejected(self, topo16, topo8):
        bad_table = hop_distance_table(UpDownRouting(topo8))
        with pytest.raises(ValueError, match="table covers"):
            CommunicationAwareScheduler(topo16, table=bad_table)


class TestSchedule:
    def test_schedule_beats_random(self, scheduler16, workload16):
        op = scheduler16.schedule(workload16, seed=1)
        rand = [scheduler16.random_schedule(workload16, seed=s)
                for s in range(10)]
        assert all(op.f_g <= r.f_g for r in rand)
        assert all(op.c_c >= r.c_c for r in rand)

    def test_deterministic_given_seed(self, scheduler16, workload16):
        a = scheduler16.schedule(workload16, seed=5)
        b = scheduler16.schedule(workload16, seed=5)
        assert a.partition == b.partition
        assert a.f_g == b.f_g

    def test_result_fields_consistent(self, scheduler16, workload16):
        res = scheduler16.schedule(workload16, seed=2)
        scores = scheduler16.evaluate(res.partition)
        assert res.f_g == pytest.approx(scores["F_G"])
        assert res.d_g == pytest.approx(scores["D_G"])
        assert res.c_c == pytest.approx(scores["C_c"])
        assert res.c_c == pytest.approx(res.d_g / res.f_g)

    def test_mapping_expands_partition(self, scheduler16, workload16, topo16):
        res = scheduler16.schedule(workload16, seed=3)
        res.mapping.validate()
        assert res.mapping == partition_to_mapping(res.partition, workload16,
                                                   topo16)

    def test_search_trace_attached(self, scheduler16, workload16):
        res = scheduler16.schedule(workload16, seed=4)
        assert res.search is not None
        assert len(res.search.trace) > 10
        assert min(res.search.trace) == pytest.approx(res.f_g)

    def test_summary_string(self, scheduler16, workload16):
        res = scheduler16.schedule(workload16, seed=1)
        s = res.summary()
        assert "F_G=" in s and "C_c=" in s

    def test_warm_start(self, scheduler16, workload16):
        base = scheduler16.schedule(workload16, seed=1)
        warm = scheduler16.schedule(workload16, seed=2,
                                    initial=base.partition)
        assert warm.f_g <= base.f_g + 1e-12

    def test_custom_search(self, topo16, workload16):
        s = CommunicationAwareScheduler(topo16, search=RandomSearch(samples=5))
        res = s.schedule(workload16, seed=0)
        assert res.search.method == "random"

    def test_random_schedule_reproducible(self, scheduler16, workload16):
        a = scheduler16.random_schedule(workload16, seed=9)
        b = scheduler16.random_schedule(workload16, seed=9)
        assert a.partition == b.partition

    def test_meta_fields(self, scheduler16, workload16):
        res = scheduler16.random_schedule(workload16, seed=0)
        assert res.meta["routing"] == "updown"
        assert res.meta["table_kind"] == "equivalent"


class TestObjective:
    def test_objective_sizes(self, scheduler16, workload16):
        obj = scheduler16.objective_for(workload16)
        assert obj.sizes == [4, 4, 4, 4]

    def test_partial_machine_workload(self, scheduler16):
        w = Workload.uniform(2, 8)  # 2 clusters x 2 switches on 16 switches
        res = scheduler16.schedule(w, seed=1)
        assert res.partition.sizes() == [2, 2]
        assert (res.partition.labels == -1).sum() == 12
