"""Tests for the paper's Tabu search."""

import numpy as np
import pytest

import repro.search.tabu as tabu_module
from repro.core.mapping import Partition, random_partition
from repro.distance.table import build_distance_table
from repro.obs.sinks import MemorySink
from repro.obs.trace import Tracer, use_tracer
from repro.routing.updown import UpDownRouting
from repro.search.base import SimilarityObjective
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.state import PartitionState
from repro.search.tabu import TabuSearch
from repro.topology.irregular import random_irregular_topology
from repro.util.rng import derive_seed

from .test_state import oracle_best_swaps


@pytest.fixture
def objective16(table16):
    return SimilarityObjective(table16, [4, 4, 4, 4])


@pytest.fixture
def objective8(table8):
    return SimilarityObjective(table8, [4, 4])


class TestParameters:
    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0},
        {"max_iterations": 0},
        {"local_min_repeats": 0},
        {"tenure": -1},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            TabuSearch(**kwargs)


class TestSearchBehaviour:
    def test_finds_exhaustive_optimum_small(self, objective8):
        # The paper: on small networks Tabu matches exhaustive search.
        exact = ExhaustiveSearch().run(objective8)
        tabu = TabuSearch().run(objective8, seed=0)
        assert tabu.best_value == pytest.approx(exact.best_value)

    def test_multiple_seeds_consistent_on_16(self, objective16):
        vals = [TabuSearch().run(objective16, seed=s).best_value
                for s in range(3)]
        spread = max(vals) - min(vals)
        assert spread < 0.05, "multi-start Tabu should be stable across seeds"

    def test_beats_random_baseline(self, objective16):
        tabu = TabuSearch().run(objective16, seed=1)
        randoms = [
            objective16.value(random_partition([4] * 4, 16, seed=s))
            for s in range(30)
        ]
        assert tabu.best_value < min(randoms)

    def test_trace_structure(self, objective16):
        res = TabuSearch(restarts=4).run(objective16, seed=2)
        assert len(res.restart_indices) == 4
        assert res.restart_indices[0] == 0
        assert sorted(res.restart_indices) == res.restart_indices
        # Each restart begins at a (high) random value.
        for idx in res.restart_indices:
            assert res.trace[idx] > res.best_value

    def test_best_value_matches_trace_min(self, objective16):
        res = TabuSearch().run(objective16, seed=3)
        assert res.best_value == pytest.approx(min(res.trace))

    def test_best_partition_value_consistent(self, objective16):
        res = TabuSearch().run(objective16, seed=4)
        assert objective16.value(res.best_partition) == pytest.approx(
            res.best_value
        )

    def test_deterministic(self, objective16):
        a = TabuSearch().run(objective16, seed=5)
        b = TabuSearch().run(objective16, seed=5)
        assert a.trace == b.trace
        assert a.best_partition == b.best_partition

    def test_initial_partition_used(self, objective16):
        init = random_partition([4] * 4, 16, seed=9)
        res = TabuSearch(restarts=1, max_iterations=1).run(
            objective16, seed=0, initial=init
        )
        assert res.trace[0] == pytest.approx(objective16.value(init))

    def test_iteration_cap_respected(self, objective16):
        res = TabuSearch(restarts=2, max_iterations=5).run(objective16, seed=6)
        # trace holds the initial value plus <= 5 moves per restart
        assert len(res.trace) <= 2 * 6

    def test_uphill_moves_present(self, objective16):
        # The Tabu escape mechanism must produce non-monotone segments.
        res = TabuSearch(restarts=2, max_iterations=20).run(objective16, seed=7)
        diffs = [b - a for a, b in zip(res.trace, res.trace[1:])]
        assert any(d > 0 for d in diffs), "no uphill escape observed"

    def test_meta_fields(self, objective16):
        res = TabuSearch(tenure=7).run(objective16, seed=8)
        assert res.method == "tabu"
        assert res.meta["tenure"] == 7
        assert res.evaluations > 0

    def test_zero_tenure_allowed(self, objective16):
        res = TabuSearch(tenure=0, restarts=2).run(objective16, seed=9)
        assert res.best_value > 0


class TestLocalMinimumCounting:
    """Regression tests for the local-minimum stop rule.

    The stop rule (paper: "the search must end when the same local minimum
    is visited three times") must count visits only at genuine local minima
    of the *unrestricted* swap neighbourhood.  An earlier version judged by
    the tabu-filtered best delta, so a state whose improving escape was
    merely tabu-forbidden was miscounted as a local-minimum visit, ending
    seeds early.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_counted_states_are_genuine_local_minima(self, objective16, seed):
        res = TabuSearch().run(objective16, seed=seed)
        keys = res.meta["local_min_keys"]
        assert keys, "tabu on 16 switches must reach some local minimum"
        for key in keys:
            part = Partition.from_clusters(key, 16)
            state = objective16.state_from(part)
            _pair, delta, free_delta = state.best_swaps(set(), float("-inf"))
            assert free_delta >= -1e-9, (
                f"counted state has an unrestricted improving swap "
                f"(free_delta={free_delta}); the visit was tabu-masked, "
                f"not a local minimum"
            )
            assert delta == free_delta  # no forbidden moves ⇒ same optimum

    def test_visit_total_matches_key_counts(self, objective16):
        res = TabuSearch().run(objective16, seed=1)
        assert res.meta["local_min_visits"] >= len(res.meta["local_min_keys"])

    def test_tabu_masked_descent_not_counted(self, objective8):
        # With an enormous tenure every inverse move stays forbidden, so
        # tabu-masked states abound; visits must still only happen at
        # unrestricted minima.
        res = TabuSearch(restarts=2, tenure=50, max_iterations=15).run(
            objective8, seed=3
        )
        for key in res.meta["local_min_keys"]:
            state = objective8.state_from(Partition.from_clusters(key, 8))
            _pair, _delta, free_delta = state.best_swaps(set(), float("-inf"))
            assert free_delta >= -1e-9


class TestPaperOptimalityClaim:
    def test_tabu_matches_exhaustive_on_16_switches(self, objective16):
        """Section 4.2 verbatim: 'for small size networks (up to 16
        switches) the minimum obtained by this method was the same value
        F(P_0) that the one obtained with an exhaustive search.'

        The raw 4x4x4x4 space has 2,627,625 partitions; warm-starting the
        branch-and-bound with the Tabu incumbent prunes it to ~35k nodes,
        making the exact check cheap enough for the regular suite.
        """
        tabu = TabuSearch().run(objective16, seed=0)
        exact = ExhaustiveSearch(max_nodes=5_000_000).run(
            objective16, initial=tabu.best_partition
        )
        assert exact.optimal is True
        assert tabu.best_value == pytest.approx(exact.best_value)


class TestVectorisedNeighbourhood:
    def test_search_identical_to_scalar_oracle(self, monkeypatch):
        """The one-expression swap pass leaves a full multi-start search,
        including its counters, exactly as the scalar pass did."""
        monkeypatch.setattr(tabu_module, "LOCKSTEP_MAX_SWITCHES", 0)
        topo = random_irregular_topology(64, seed=derive_seed(42, "schedule", 0))
        objective = SimilarityObjective(build_distance_table(UpDownRouting(topo)),
                                        [8] * 8)
        fast = TabuSearch().run(objective, seed=42)
        monkeypatch.setattr(PartitionState, "best_swaps", oracle_best_swaps)
        slow = TabuSearch().run(objective, seed=42)
        assert fast.best_partition.canonical_key() == slow.best_partition.canonical_key()
        assert fast.best_value == slow.best_value
        assert fast.trace == slow.trace
        assert fast.evaluations == slow.evaluations
        assert fast.iterations == slow.iterations
        assert fast.meta == slow.meta


def _traced_run(search, objective, seed, initial=None):
    """A search's result and the attributes of its restart events."""
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        result = search.run(objective, seed=seed, initial=initial)
    return result, [e["attrs"] for e in sink.by_name("search.restart")]


def _table_objective(n, clusters=4):
    topo = random_irregular_topology(n, seed=derive_seed(11, "lockstep", n))
    return SimilarityObjective(build_distance_table(UpDownRouting(topo)),
                               [n // clusters] * clusters)


class TestLockstep:
    """Serial restarts run in lockstep up to ``LOCKSTEP_MAX_SWITCHES``.

    The oracle is the per-restart path (``_run_single`` per start), forced
    by setting the cut-over to zero: every result field, the meta with its
    local-minimum keys, and the restart events must be equal, bit for bit.
    """

    def assert_lockstep_matches(self, monkeypatch, make_search, objective,
                                seed, initial=None):
        assert objective.num_switches <= tabu_module.LOCKSTEP_MAX_SWITCHES
        got, got_events = _traced_run(make_search(), objective, seed, initial)
        monkeypatch.setattr(tabu_module, "LOCKSTEP_MAX_SWITCHES", 0)
        want, want_events = _traced_run(make_search(), objective, seed,
                                        initial)
        monkeypatch.undo()
        assert got.best_partition.labels.tolist() == \
            want.best_partition.labels.tolist()
        assert got.best_value == want.best_value
        assert got.trace == want.trace
        assert [type(v) for v in got.trace] == [type(v) for v in want.trace]
        assert got.restart_indices == want.restart_indices
        assert (got.iterations, got.evaluations) == \
            (want.iterations, want.evaluations)
        assert got.meta == want.meta
        assert got.meta["local_min_keys"] == want.meta["local_min_keys"]
        assert got_events == want_events

    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("restarts", [1, 3, 10])
    def test_matches_per_restart_path(self, monkeypatch, n, restarts):
        objective = _table_objective(n)
        for seed in range(3):
            self.assert_lockstep_matches(
                monkeypatch, lambda: TabuSearch(restarts=restarts),
                objective, seed)

    @pytest.mark.parametrize("kwargs", [
        {"tenure": 0},
        {"aspiration": False},
        {"local_min_repeats": 1},
        {"max_iterations": 1},
        {"tenure": 50, "max_iterations": 30},
    ])
    def test_matches_per_restart_path_for_each_knob(self, monkeypatch,
                                                    kwargs):
        objective = _table_objective(16)
        for seed in range(3):
            self.assert_lockstep_matches(
                monkeypatch, lambda: TabuSearch(**kwargs), objective, seed)

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_warm_start_goes_to_the_first_start_only(self, monkeypatch,
                                                     restarts):
        objective = _table_objective(16)
        initial = random_partition([4] * 4, 16, seed=99)
        self.assert_lockstep_matches(
            monkeypatch, lambda: TabuSearch(restarts=restarts), objective,
            seed=4, initial=initial)

    def test_wide_searches_run_in_groups(self, monkeypatch):
        monkeypatch.setattr(tabu_module, "LOCKSTEP_MAX_STARTS", 3)
        initial = random_partition([4] * 4, 16, seed=99)
        self.assert_lockstep_matches(
            monkeypatch, lambda: TabuSearch(restarts=10),
            _table_objective(16), seed=5, initial=initial)

    def test_matches_at_the_cut_over(self, monkeypatch):
        n = tabu_module.LOCKSTEP_MAX_SWITCHES
        self.assert_lockstep_matches(monkeypatch, TabuSearch,
                                     _table_objective(n, clusters=n // 8), 1)

    @pytest.mark.parametrize("n, clusters", [(16, 4), (24, 4), (32, 4)])
    def test_matches_on_a_noisy_table(self, monkeypatch, n, clusters):
        """``TestTableNoise``'s perturbed tables, whose exact ties the
        ``_EPS`` rule must break the same way on both paths."""
        topo = random_irregular_topology(n, seed=derive_seed(7, "noise", n))
        table = build_distance_table(UpDownRouting(topo)).values
        rng = np.random.default_rng(n)
        for _ in range(3):
            noise = np.triu(rng.standard_normal((n, n)), 1) * 1e-14
            objective = SimilarityObjective(table * (1.0 + noise + noise.T),
                                            [n // clusters] * clusters)
            self.assert_lockstep_matches(monkeypatch, TabuSearch, objective,
                                         3)

    def test_large_or_pooled_searches_keep_one_job_per_start(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(TabuSearch, "_run_lockstep",
                            lambda *args: calls.append(args))
        small = _table_objective(16)
        TabuSearch(restarts=2, max_iterations=2, workers=2).run(small, seed=0)
        big = tabu_module.LOCKSTEP_MAX_SWITCHES + 8
        TabuSearch(restarts=2, max_iterations=2).run(
            _table_objective(big, clusters=big // 8), seed=0)
        assert calls == []


class TestTableNoise:
    @pytest.mark.parametrize("n, clusters", [(16, 4), (24, 4), (32, 4), (64, 8)])
    def test_last_bits_of_the_table_do_not_steer_the_search(self, n, clusters):
        """Symmetric 1e-14 relative noise, far below any real difference
        of ``F_G`` but enough to reorder exact ties, leaves every decision
        of the search as it was."""
        topo = random_irregular_topology(n, seed=derive_seed(7, "noise", n))
        table = build_distance_table(UpDownRouting(topo)).values
        sizes = [n // clusters] * clusters
        want = TabuSearch().run(SimilarityObjective(table, sizes), seed=3)
        rng = np.random.default_rng(n)
        for _ in range(5):
            noise = np.triu(rng.standard_normal((n, n)), 1) * 1e-14
            noisy = table * (1.0 + noise + noise.T)
            got = TabuSearch().run(SimilarityObjective(noisy, sizes), seed=3)
            assert got.best_partition.canonical_key() == \
                want.best_partition.canonical_key()
            assert got.meta == want.meta
            assert (got.iterations, got.evaluations) == \
                (want.iterations, want.evaluations)
            assert len(got.trace) == len(want.trace)
            np.testing.assert_allclose(got.trace, want.trace, rtol=1e-12)
