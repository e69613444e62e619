"""Tests for the process-level mapping optimizer."""

import numpy as np
import pytest

from repro.core.mapping import (
    LogicalCluster,
    Workload,
    partition_to_mapping,
    random_partition,
)
from repro.core.quality import weighted_mapping_cost
from repro.search.process_local import (
    ProcessMappingOptimizer,
    default_weights,
    random_process_mapping,
)


@pytest.fixture
def uneven_workload():
    """Cluster sizes deliberately NOT multiples of 4 hosts/switch."""
    return Workload([
        LogicalCluster("a", 10, comm_weight=2.0),
        LogicalCluster("b", 22),
        LogicalCluster("c", 32, comm_weight=0.5),
    ])


class TestDefaultWeights:
    def test_structure(self):
        w = Workload([LogicalCluster("a", 2, comm_weight=2.0),
                      LogicalCluster("b", 2)])
        m = default_weights(w)
        assert m.shape == (4, 4)
        assert m[0, 1] == 4.0          # intra-a: 2*2
        assert m[2, 3] == 1.0          # intra-b
        assert m[0, 2] == 0.0          # cross-cluster
        assert (np.diag(m) == 0).all()
        assert np.allclose(m, m.T)

    def test_matches_weighted_cost(self, topo16, table16, workload16):
        # weighted_mapping_cost's implicit W equals default_weights.
        part = random_partition([4] * 4, 16, seed=1)
        mapping = partition_to_mapping(part, workload16, topo16)
        explicit = weighted_mapping_cost(
            table16, mapping, weights=default_weights(workload16)
        )
        implicit = weighted_mapping_cost(table16, mapping)
        assert explicit == pytest.approx(implicit)


class TestRandomProcessMapping:
    def test_valid_and_no_purity_required(self, topo16, uneven_workload):
        m = random_process_mapping(uneven_workload, topo16, seed=0)
        m.validate()
        # Switch purity generally violated (that's the point).
        owners = {}
        for (ci, _pi), h in m.host_of.items():
            owners.setdefault(topo16.host_switch(h), set()).add(ci)
        assert any(len(c) > 1 for c in owners.values())

    def test_overflow_rejected(self, topo16):
        w = Workload([LogicalCluster("big", 65)])
        with pytest.raises(ValueError):
            random_process_mapping(w, topo16, seed=0)

    def test_reproducible(self, topo16, uneven_workload):
        a = random_process_mapping(uneven_workload, topo16, seed=3)
        b = random_process_mapping(uneven_workload, topo16, seed=3)
        assert a.host_of == b.host_of


class TestOptimizer:
    def test_descent_improves(self, topo16, table16, uneven_workload):
        opt = ProcessMappingOptimizer(table16, uneven_workload, topo16)
        res = opt.optimize(seed=0, restarts=2)
        assert res.cost < res.initial_cost

    def test_cost_consistency(self, topo16, table16, uneven_workload):
        opt = ProcessMappingOptimizer(table16, uneven_workload, topo16)
        res = opt.optimize(seed=1, restarts=2)
        assert opt.cost_of(res.mapping) == pytest.approx(res.cost)
        # And against the public weighted_mapping_cost.
        assert weighted_mapping_cost(
            table16, res.mapping, weights=opt.weights
        ) == pytest.approx(res.cost)

    def test_result_mapping_valid(self, topo16, table16, uneven_workload):
        opt = ProcessMappingOptimizer(table16, uneven_workload, topo16)
        res = opt.optimize(seed=2)
        res.mapping.validate()

    def test_matches_switch_level_on_paper_case(self, topo16, table16,
                                                workload16, scheduler16):
        """With the paper's assumptions, process-level descent should get
        close to the Tabu partition objective (same optimum space)."""
        opt = ProcessMappingOptimizer(table16, workload16, topo16)
        res = opt.optimize(seed=0, restarts=5)
        tabu = scheduler16.schedule(workload16, seed=0)
        tabu_cost = weighted_mapping_cost(table16, tabu.mapping)
        assert res.cost <= 1.3 * tabu_cost

    def test_warm_start_never_worse(self, topo16, table16, workload16):
        part = random_partition([4] * 4, 16, seed=5)
        warm = partition_to_mapping(part, workload16, topo16)
        opt = ProcessMappingOptimizer(table16, workload16, topo16)
        res = opt.optimize(initial=warm, seed=0, restarts=1)
        assert res.cost <= opt.cost_of(warm) + 1e-9

    def test_partial_machine_uses_free_hosts(self, topo16, table16):
        w = Workload([LogicalCluster("small", 6)])
        opt = ProcessMappingOptimizer(table16, w, topo16)
        res = opt.optimize(seed=0, restarts=3)
        # 6 heavily-communicating processes should end up on few switches.
        switches = {
            topo16.host_switch(h) for h in res.mapping.host_of.values()
        }
        assert len(switches) <= 3

    def test_validation(self, topo16, table16, workload16):
        with pytest.raises(ValueError, match="weights"):
            ProcessMappingOptimizer(table16, workload16, topo16,
                                    weights=np.ones((3, 3)))
        bad = np.ones((64, 64))
        bad[0, 1] = 5.0
        with pytest.raises(ValueError, match="symmetric"):
            ProcessMappingOptimizer(table16, workload16, topo16, weights=bad)
        with pytest.raises(ValueError, match="restarts"):
            ProcessMappingOptimizer(table16, workload16, topo16).optimize(
                seed=0, restarts=0
            )

    def test_deterministic(self, topo16, table16, uneven_workload):
        opt = ProcessMappingOptimizer(table16, uneven_workload, topo16)
        a = opt.optimize(seed=7, restarts=2)
        b = opt.optimize(seed=7, restarts=2)
        assert a.cost == b.cost
        assert a.mapping.host_of == b.mapping.host_of
