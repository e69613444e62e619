"""Tests for the fault-injection study."""

import gc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping import Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.experiments.common import ExperimentSetup, paper_16switch_setup
from repro.experiments.failures import (
    FaultRow,
    FaultStudyResult,
    render_fault_study,
    run_fault_study,
)
from repro.faults.model import FaultScenario, sample_fault_scenarios
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.search.tabu import TabuSearch
from repro.topology.designed import star_topology
from repro.topology.irregular import random_irregular_topology


def _single_links(links):
    return [FaultScenario(links=(link,)) for link in links]


def _row(full_machine, degraded, repaired, rescheduled):
    """A study row with the given survivability and C_c outcomes."""
    return FaultRow(
        scenario=FaultScenario(links=((0, 1),)), connected=full_machine,
        full_machine=full_machine, num_components=1 if full_machine else 2,
        c_c_before=4.0, c_c_degraded=degraded, c_c_repaired=repaired,
        c_c_rescheduled=rescheduled, repair_seconds=0.0,
        reschedule_seconds=0.0, placed_clusters=1, unplaced_clusters=0)


def _setup_for(topo, clusters, *, seed=1, search=None):
    scheduler = CommunicationAwareScheduler(topo, search=search) \
        if search is not None else CommunicationAwareScheduler(topo)
    per_cluster = (topo.num_switches // clusters) * topo.hosts_per_switch
    return ExperimentSetup(
        topology=topo,
        scheduler=scheduler,
        workload=Workload.uniform(clusters, per_cluster),
        routing_table=RoutingTable(scheduler.routing),
        seed=seed,
    )


@pytest.fixture(scope="module")
def setup16():
    return paper_16switch_setup()


@pytest.fixture(scope="module")
def study(setup16):
    # Subset of links keeps the test quick; the bench does all of them.
    return run_fault_study(setup16, _single_links(setup16.topology.links[:8]))


class TestFailureStudy:
    def test_one_row_per_link(self, study):
        assert len(study.rows) == 8

    def test_3regular_network_survives_single_failures(self, study):
        # A 3-regular random connected graph is almost surely 2-edge-
        # connected; our seeded topology is (verified here).
        assert all(r.connected for r in study.rows)

    def test_updown_reconnects_after_failure(self, setup16):
        for link in setup16.topology.links[:8]:
            failed = setup16.topology.without_link(*link)
            if failed.is_connected():
                r = UpDownRouting(failed)
                d = r.distances()
                assert (d >= 0).all()

    def test_degradation_and_recovery(self, study):
        # NOTE: C_c is a *relative* quality measure (intracluster vs
        # intercluster bandwidth), so failing an intercluster link can
        # RAISE the stale mapping's C_c even though absolute capacity
        # dropped — no monotonicity is asserted on degradation.  What must
        # hold: rescheduling never does worse than the stale mapping.
        for r in study.survivable:
            assert r.c_c_degraded > 0
            assert r.c_c_rescheduled >= r.c_c_degraded - 1e-9
        assert study.all_survivable_repaired_ok()

    def test_disconnecting_failure_marked(self):
        # Star topology: every link failure disconnects a leaf.
        from repro.core.scheduler import CommunicationAwareScheduler
        from repro.core.mapping import Workload
        from repro.experiments.common import ExperimentSetup
        from repro.routing.tables import RoutingTable

        topo = star_topology(5)
        sched = CommunicationAwareScheduler(topo)
        setup = ExperimentSetup(
            topology=topo,
            scheduler=sched,
            workload=Workload.uniform(2, 8),
            routing_table=RoutingTable(sched.routing),
            seed=1,
        )
        res = run_fault_study(setup, _single_links([(0, 1)]))
        assert not res.rows[0].connected
        assert res.rows[0].c_c_degraded is None

    def test_render(self, study):
        out = render_fault_study(study)
        assert "failure injection" in out
        assert "survivable failures: 8/8" in out

    def test_recovery_property(self):
        row = _row(True, 1.5, 2.0, 3.0)
        assert row.repair_gap == pytest.approx(1.0)
        row2 = _row(False, None, None, None)
        assert row2.repair_gap is None


class TestFailureStudyEdgeCases:
    def test_disconnected_rows_excluded_from_survivable(self):
        rows = [
            _row(True, 3.5, 3.6, 3.8),
            _row(False, None, None, None),
            _row(False, None, None, None),
        ]
        res = FaultStudyResult(rows, baseline_c_c=4.0)
        assert len(res.survivable) == 1
        # Disconnected rows (c_c None) must not crash the check.
        assert res.all_survivable_repaired_ok()

    def test_all_disconnected_is_vacuously_ok(self):
        rows = [_row(False, None, None, None)]
        res = FaultStudyResult(rows, baseline_c_c=4.0)
        assert res.survivable == []
        assert res.all_survivable_repaired_ok()

    def test_regression_detected(self):
        rows = [_row(True, 3.5, 3.5, 3.0)]
        assert not FaultStudyResult(rows, 4.0).all_survivable_repaired_ok()

    def test_empty_links_gives_empty_study(self, setup16):
        res = run_fault_study(setup16, [])
        assert res.rows == []
        assert res.survivable == []
        assert res.all_survivable_repaired_ok()
        assert "survivable failures: 0/0" in render_fault_study(res)

    def test_recovery_none_when_rescheduling_skipped(self):
        row = _row(False, None, None, None)
        assert row.repair_gap is None
        # Partial skips too (repair known, reschedule skipped).
        assert _row(True, 3.0, 3.2, None).repair_gap is None


@given(st.integers(0, 10_000))
@settings(max_examples=5, deadline=None)
def test_all_survivable_rescheduled_ok_is_invariant(seed):
    """Property: the repair guarantee holds for any scheduling seed.

    Warm-started searches track the best value seen, so no seed can make
    rescheduling end below the degraded mapping — the paper's monotonicity
    argument as a hypothesis property (small search keeps it quick).
    """
    topo = random_irregular_topology(8, seed=7, name="prop8")
    setup = _setup_for(topo, 2, seed=seed,
                       search=TabuSearch(restarts=2, max_iterations=8))
    res = run_fault_study(setup, _single_links(topo.links[:4]), seed=seed)
    assert res.all_survivable_repaired_ok()


class TestFaultStudy:
    @pytest.fixture(scope="class")
    def small_setup(self):
        topo = random_irregular_topology(8, seed=7, name="fs8")
        return _setup_for(topo, 2,
                          search=TabuSearch(restarts=2, max_iterations=10))

    @pytest.fixture(scope="class")
    def k2_scenarios(self, small_setup):
        return sample_fault_scenarios(small_setup.topology, num_faults=2,
                                      count=4, seed=3,
                                      include_switches=True)

    @pytest.fixture(scope="class")
    def k2_study(self, small_setup, k2_scenarios):
        return run_fault_study(small_setup, k2_scenarios, seed=1)

    def test_one_row_per_scenario(self, k2_study, k2_scenarios):
        assert len(k2_study.rows) == len(k2_scenarios)
        assert [r.scenario for r in k2_study.rows] == list(k2_scenarios)

    def test_repair_guarantee_on_survivable(self, k2_study):
        assert k2_study.all_survivable_repaired_ok()
        for r in k2_study.survivable:
            assert r.c_c_repaired >= r.c_c_degraded - 1e-9
            assert r.repair_gap is not None

    def test_degraded_mode_rows_never_raise(self, k2_study):
        for r in k2_study.degraded_mode:
            assert r.c_c_degraded is None
            assert r.placed_clusters + r.unplaced_clusters >= 1

    def test_parallel_matches_serial_bitwise(self, small_setup,
                                             k2_scenarios, k2_study):
        par = run_fault_study(small_setup, k2_scenarios, seed=1, workers=2)
        assert par.deterministic_payload() == k2_study.deterministic_payload()

    def test_checkpoint_resume_bit_identical(self, small_setup, k2_scenarios,
                                             k2_study, tmp_path):
        # First run records everything; a second run with the same
        # checkpoint replays from disk and must serialize identically.
        path = str(tmp_path / "faults.jsonl")
        first = run_fault_study(small_setup, k2_scenarios, seed=1,
                                checkpoint_path=path)
        resumed = run_fault_study(small_setup, k2_scenarios, seed=1,
                                  checkpoint_path=path)
        assert first.deterministic_payload() == resumed.deterministic_payload()
        assert resumed.deterministic_payload() == k2_study.deterministic_payload()

    def test_checkpoint_file_is_closed(self, small_setup, k2_scenarios,
                                       tmp_path):
        path = str(tmp_path / "faults.jsonl")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_fault_study(small_setup, k2_scenarios, seed=1,
                            checkpoint_path=path)
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)
                 and path in str(w.message)]
        assert leaks == []

    def test_render_mentions_survivable_and_tradeoff(self, k2_study):
        out = render_fault_study(k2_study)
        assert "failure injection" in out
        n = len(k2_study.survivable)
        assert f"survivable failures: {n}/{len(k2_study.rows)}" in out

    def test_default_scenarios_are_single_links(self, small_setup):
        res = run_fault_study(small_setup, seed=1)
        assert len(res.rows) == len(small_setup.topology.links)
        assert all(r.scenario.num_faults == 1 for r in res.rows)


class TestSimulatedFaultImpact:
    """The C_c study on a small seeded network, without any simulation."""

    @pytest.fixture(scope="class")
    def small_setup(self):
        topo = random_irregular_topology(8, seed=7, name="fsim8")
        return _setup_for(topo, 2,
                          search=TabuSearch(restarts=2, max_iterations=10))

    @pytest.fixture(scope="class")
    def scenarios(self, small_setup):
        return [FaultScenario(links=(link,))
                for link in small_setup.topology.links[:3]]

    def test_fault_study_itself_is_engine_free(self, small_setup, scenarios):
        """run_fault_study never simulates: its payload has no engine knob,
        so the same bytes come out regardless of the ambient default."""
        a = run_fault_study(small_setup, scenarios, seed=1)
        b = run_fault_study(small_setup, scenarios, seed=1)
        assert a.deterministic_payload() == b.deterministic_payload()
