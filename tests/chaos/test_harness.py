"""Harness tests: injectors behave, scenarios hold, the registry is sane.

The full eight-scenario sweep runs in the CI ``chaos-smoke`` job (via
``repro chaos``); here the tier-1 suite pins the injector mechanics and a
representative scenario pair so a regression fails fast and close to its
cause.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    SCENARIOS,
    ChaoticExecutor,
    FaultAction,
    kill_workers,
    render_report,
    run_scenarios,
    slow_at,
)
from repro.parallel import WorkerPool
from repro.service import ScheduleRequest, execute_request
from repro.topology.irregular import random_irregular_topology


@pytest.fixture(scope="module")
def payload():
    topo = random_irregular_topology(8, seed=11, name="chaos-test8")
    return ScheduleRequest.build(topo, clusters=4, method="tabu",
                                 seed=1).to_dict()


class TestChaoticExecutor:
    def test_error_fault_fires_exactly_once_per_seq(self, tmp_path,
                                                    payload):
        executor = ChaoticExecutor({1: FaultAction("error")}, str(tmp_path / "latch"))
        with pytest.raises(RuntimeError, match="chaos"):
            executor(1, payload)
        # Same seq again: the latch is claimed, the job runs clean.
        assert executor(1, payload) == execute_request(payload)

    def test_unplanned_seqs_execute_normally(self, tmp_path, payload):
        executor = ChaoticExecutor({1: FaultAction("error")}, str(tmp_path / "latch"))
        assert executor(2, payload) == execute_request(payload)

    def test_once_false_fires_every_attempt(self, tmp_path, payload):
        executor = ChaoticExecutor({1: FaultAction("error")}, str(tmp_path / "latch"),
                                   once=False)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="chaos"):
                executor(1, payload)

    def test_slow_fault_still_completes_correctly(self, tmp_path, payload):
        executor = ChaoticExecutor(slow_at(1, delay=0.05),
                                   str(tmp_path / "latch"))
        assert executor(1, payload) == execute_request(payload)

    def test_executor_is_picklable(self, tmp_path):
        import pickle

        executor = ChaoticExecutor(
            {1: FaultAction("error"), 2: FaultAction("error")},
            str(tmp_path / "latch"))
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.plan == executor.plan
        assert clone.latch_dir == executor.latch_dir


class TestKillWorkers:
    def test_inactive_pool_kills_nothing(self):
        pool = WorkerPool(workers=2)
        try:
            assert kill_workers(pool) == 0
        finally:
            pool.terminate()


class TestRegistry:
    def test_all_eight_fault_classes_are_registered(self):
        assert set(SCENARIOS) == {
            "worker_crash", "worker_hang", "crash_loop", "torn_frames",
            "dropped_connection", "store_corruption", "pool_death",
            "wal_replay",
        }

    def test_unknown_scenario_fails_before_running_anything(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenarios(["no_such_fault"], workdir=tmp_path)


class TestScenarios:
    """A representative pair inline; the full sweep runs in chaos-smoke."""

    def test_worker_crash_and_wal_replay_hold_the_invariant(self, tmp_path):
        results = run_scenarios(["worker_crash", "wal_replay"], seed=2,
                                workdir=tmp_path)
        report = render_report(results)
        assert all(r.invariant_ok for r in results), report
        by_name = {r.name: r for r in results}
        crash = by_name["worker_crash"]
        assert crash.stats["restarts"] >= 1
        assert all(o.byte_identical for o in crash.outcomes)
        replay = by_name["wal_replay"]
        assert replay.stats["replayed"] == 3
        assert "2/2 scenarios hold the invariant" in report

    def test_results_serialize_for_the_json_cli_path(self, tmp_path):
        import json

        results = run_scenarios(["store_corruption"], seed=4,
                                workdir=tmp_path)
        blob = json.dumps([r.to_dict() for r in results])
        parsed = json.loads(blob)
        assert parsed[0]["name"] == "store_corruption"
        assert parsed[0]["invariant_ok"] is True
