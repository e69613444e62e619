"""Tests for degraded-mode scheduling: repair, reschedule, per-component."""

import pytest

from repro.core.mapping import Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.faults.degrade import degrade
from repro.faults.model import FaultScenario, sample_fault_scenarios
from repro.faults.reschedule import (
    compare_repair_strategies,
    evaluate_partition,
    full_reschedule,
    repair_schedule,
    schedule_degraded,
)
from tests.topologies import star_topology


@pytest.fixture(scope="module")
def baseline8(topo8, workload8):
    """The healthy-network OP mapping on the 8-switch fixture."""
    return CommunicationAwareScheduler(topo8).schedule(workload8, seed=1)


class TestRepair:
    def test_repair_never_below_degraded(self, topo8, workload8, baseline8):
        # Acceptance: for every survivable scenario, warm-start repair
        # must end at C_c >= the degraded (stale) mapping's C_c.
        for link in topo8.links:
            net = degrade(topo8, FaultScenario(links=[link]))
            if not net.full_machine:
                continue
            degraded_c_c = evaluate_partition(net, baseline8.partition)["C_c"]
            repaired = repair_schedule(net, workload8, baseline8.partition,
                                       seed=1)
            assert repaired.c_c >= degraded_c_c - 1e-9

    def test_repair_beats_degraded_across_sampled_k2(self, topo16,
                                                     workload16):
        baseline = CommunicationAwareScheduler(topo16).schedule(
            workload16, seed=1
        )
        scens = sample_fault_scenarios(topo16, num_faults=2, count=4, seed=5)
        checked = 0
        for s in scens:
            net = degrade(topo16, s)
            if not net.full_machine:
                continue
            degraded_c_c = evaluate_partition(net, baseline.partition)["C_c"]
            repaired = repair_schedule(net, workload16, baseline.partition,
                                       seed=1)
            assert repaired.c_c >= degraded_c_c - 1e-9
            checked += 1
        assert checked > 0

    def test_full_reschedule_never_below_repair_quality_floor(
            self, topo8, workload8, baseline8):
        net = degrade(topo8, FaultScenario(links=[topo8.links[0]]))
        if not net.full_machine:
            pytest.skip("fixture link is a bridge")
        degraded_c_c = evaluate_partition(net, baseline8.partition)["C_c"]
        full = full_reschedule(net, workload8,
                               old_partition=baseline8.partition,
                               seed=1, restarts=3)
        assert full.c_c >= degraded_c_c - 1e-9

    def test_compare_reports_gap_and_speedup(self, topo8, workload8,
                                             baseline8):
        net = degrade(topo8, FaultScenario(links=[topo8.links[0]]))
        if not net.full_machine:
            pytest.skip("fixture link is a bridge")
        cmp = compare_repair_strategies(net, workload8, baseline8.partition,
                                        seed=1, full_restarts=3)
        assert cmp.repaired.c_c >= cmp.degraded_c_c - 1e-9
        assert cmp.rescheduled.c_c >= cmp.degraded_c_c - 1e-9
        assert cmp.repair_gap == pytest.approx(
            cmp.rescheduled.c_c - cmp.repaired.c_c
        )

    def test_evaluate_requires_full_machine(self, workload8, baseline8):
        topo = star_topology(5)
        net = degrade(topo, FaultScenario(links=[(0, 1)]))
        with pytest.raises(ValueError):
            evaluate_partition(net, baseline8.partition)


class TestDegradedMode:
    def test_partition_yields_component_schedule_not_exception(self):
        # Acceptance: a partitioning fault must degrade to per-component
        # scheduling, never raise.
        topo = star_topology(5)
        workload = Workload.uniform(2, 8)
        baseline = CommunicationAwareScheduler(topo).schedule(workload,
                                                              seed=1)
        net = degrade(topo, FaultScenario(links=[(0, 1)]))
        assert not net.connected
        plan = schedule_degraded(net, workload,
                                 old_partition=baseline.partition, seed=1)
        assert plan.placements  # one entry per cluster
        assert len(plan.placements) == workload.num_clusters
        # Hub component (4 switches x 4 hosts = 16 hosts) fits both
        # 8-process clusters.
        assert not plan.unplaced

    def test_capacity_loss_unplaces_clusters_gracefully(self, topo8):
        # Kill a switch: 28 hosts remain, 2x16 processes no longer fit.
        workload = Workload.uniform(2, 16)
        net = degrade(topo8, FaultScenario(switches=[0]))
        plan = schedule_degraded(net, workload, seed=1)
        assert len(plan.placed) == 1
        assert len(plan.unplaced) == 1

    def test_assignment_uses_global_switch_ids(self):
        topo = star_topology(5)
        net = degrade(topo, FaultScenario(links=[(0, 1)]))
        plan = schedule_degraded(net, Workload.uniform(2, 8), seed=1)
        surviving = set(net.surviving_switches)
        for placement in plan.placed:
            assert set(placement.switches) <= surviving

    def test_deterministic_given_seed(self, topo8):
        workload = Workload.uniform(2, 12)
        net = degrade(topo8, FaultScenario(switches=[3]))
        a = schedule_degraded(net, workload, seed=9)
        b = schedule_degraded(net, workload, seed=9)
        assert a.placements == b.placements
        assert a.component_c_c == b.component_c_c
