"""Tests for the incremental PartitionState."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping import Partition, random_partition
from repro.core.quality import QualityEvaluator
from repro.search.base import SimilarityObjective
from repro.search.state import PartitionState


def oracle_best_swaps(state, forbidden=None, aspiration_below=float("-inf")):
    """The scalar neighbourhood pass ``PartitionState.best_swaps`` replaces:
    one ``swap_delta`` per candidate pair, first minimum in pair order."""
    best_pair = None
    best_delta = float("inf")
    free_delta = float("inf")
    current = state.value()
    for pair in state.candidate_swaps():
        delta = state.swap_delta(*pair)
        if delta < free_delta:
            free_delta = delta
        if forbidden and pair in forbidden:
            if not (current + delta < aspiration_below):
                continue
        if delta < best_delta:
            best_delta = delta
            best_pair = pair
    if best_pair is None:
        return None, 0.0, free_delta
    return best_pair, best_delta, free_delta


@pytest.fixture
def objective(table16):
    return SimilarityObjective(table16, [4, 4, 4, 4])


class TestState:
    def test_value_matches_evaluator(self, table16, objective):
        state = objective.random_state(seed=0)
        ev = QualityEvaluator(table16)
        assert state.value() == pytest.approx(ev.similarity(state.partition()))

    def test_singleton_clusters_rejected(self, table16):
        ev = QualityEvaluator(table16)
        with pytest.raises(ValueError, match="no intracluster pairs"):
            PartitionState(ev, Partition(list(range(16))))

    def test_swap_delta_matches_apply(self, objective):
        state = objective.random_state(seed=1)
        v0 = state.value()
        pairs = list(state.candidate_swaps())
        a, b = pairs[5]
        delta = state.swap_delta(a, b)
        state.apply_swap(a, b)
        assert state.value() == pytest.approx(v0 + delta)

    def test_swap_is_involution(self, objective):
        state = objective.random_state(seed=2)
        key0 = state.partition().canonical_key()
        v0 = state.value()
        a, b = next(iter(state.candidate_swaps()))
        state.apply_swap(a, b)
        state.apply_swap(a, b)
        assert state.partition().canonical_key() == key0
        assert state.value() == pytest.approx(v0)

    def test_candidate_swaps_cross_cluster_only(self, objective):
        state = objective.random_state(seed=3)
        for a, b in state.candidate_swaps():
            assert state.labels[a] != state.labels[b]

    def test_candidate_count(self, objective):
        state = objective.random_state(seed=4)
        count = sum(1 for _ in state.candidate_swaps())
        # C(16,2) - 4*C(4,2) = 120 - 24 = 96
        assert count == 96

    def test_best_swap_is_minimal(self, objective):
        state = objective.random_state(seed=5)
        pair, delta = state.best_swap()
        assert pair is not None
        deltas = [state.swap_delta(a, b) for a, b in state.candidate_swaps()]
        assert delta == pytest.approx(min(deltas))

    def test_best_swap_respects_forbidden(self, objective):
        state = objective.random_state(seed=6)
        pair, _ = state.best_swap()
        forbidden = {pair}
        pair2, _ = state.best_swap(forbidden, aspiration_below=float("-inf"))
        assert pair2 != pair

    def test_aspiration_overrides_tabu(self, objective):
        state = objective.random_state(seed=7)
        pair, delta = state.best_swap()
        assert delta < 0  # random start: improving swaps exist
        # With aspiration below current+delta+margin the tabu is overridden.
        target = state.value() + delta + 1e-9
        pair2, delta2 = state.best_swap({pair}, aspiration_below=target)
        assert pair2 == pair

    def test_copy_independent(self, objective):
        state = objective.random_state(seed=8)
        clone = state.copy()
        before = clone.partition().canonical_key()
        a, b = next(iter(state.candidate_swaps()))
        state.apply_swap(a, b)
        # Clone unaffected by the mutation of the original.
        assert clone.partition().canonical_key() == before
        fresh = objective.state_from(clone.partition())
        assert clone.value() == pytest.approx(fresh.value())

    def test_recompute_idempotent(self, objective):
        state = objective.random_state(seed=9)
        for pair in list(state.candidate_swaps())[:10]:
            state.apply_swap(*pair)
        v = state.value()
        state.recompute()
        assert state.value() == pytest.approx(v)


@st.composite
def swap_cases(draw):
    """A state with drift from applied swaps, a tabu set and an aspiration."""
    n = draw(st.integers(6, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        t = rng.integers(1, 4, size=(n, n)).astype(float)  # many tied deltas
    else:
        t = rng.uniform(0.5, 4.0, size=(n, n))
    t = np.triu(t, 1) + np.triu(t, 1).T
    raw = rng.integers(-1, draw(st.integers(1, 5)), size=n)
    raw[:2] = 0  # at least one intracluster pair
    used = np.unique(raw[raw >= 0])
    labels = np.where(raw >= 0, np.searchsorted(used, raw), -1)
    state = PartitionState(QualityEvaluator(t), Partition(labels))
    pairs = list(state.candidate_swaps())
    for _ in range(draw(st.integers(0, 5)) if pairs else 0):
        state.apply_swap(*pairs[rng.integers(len(pairs))])
    forbidden = {p for p in pairs if rng.random() < 0.3}
    for _ in range(draw(st.integers(0, 4))):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        forbidden.add((a, b))  # reversed, same-cluster or unassigned pairs
    # "boundary" puts the best tabu move exactly on the aspiration level,
    # where the strict comparison bars it.
    tabu_deltas = [state.swap_delta(*p) for p in pairs if p in forbidden]
    aspiration = draw(st.sampled_from(["-inf", "current", "random", "boundary"]))
    level = {"-inf": float("-inf"), "current": state.value(),
             "random": state.value() + float(rng.normal(0.0, 0.05)),
             "boundary": state.value() + min(tabu_deltas, default=0.0)}[aspiration]
    return state, forbidden, level


class TestBestSwapsOracle:
    @given(swap_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_pass(self, case):
        state, forbidden, level = case
        for tabu in (None, set(), forbidden):
            got = state.best_swaps(tabu, level)
            want = oracle_best_swaps(state, tabu, level)
            assert got[0] == want[0]
            assert got[1] == want[1] and got[2] == want[2]

    def test_empty_neighbourhood(self):
        t = np.ones((5, 5)) - np.eye(5)
        state = PartitionState(QualityEvaluator(t), Partition([0, 0, 0, -1, -1]))
        assert state.best_swaps() == (None, 0.0, float("inf"))
        assert oracle_best_swaps(state) == (None, 0.0, float("inf"))

    def test_matches_along_a_walk_of_swaps_and_copies(self, objective):
        """The pass constants are built once per state and shared with its
        copies; they must stay right as the labels move on."""
        state = objective.random_state(seed=11)
        for step in range(8):
            got = state.best_swaps()
            assert got == oracle_best_swaps(state)
            if step % 2:
                state = state.copy()
            state.apply_swap(*got[0])

    def test_all_tabu(self, objective):
        state = objective.random_state(seed=10)
        forbidden = set(state.candidate_swaps())
        got = state.best_swaps(forbidden, float("-inf"))
        assert got == oracle_best_swaps(state, forbidden, float("-inf"))
        assert got[0] is None and got[2] < 0


class TestObjectiveValidation:
    def test_bad_sizes(self, table16):
        with pytest.raises(ValueError):
            SimilarityObjective(table16, [0, 4])

    def test_overflow(self, table16):
        with pytest.raises(ValueError):
            SimilarityObjective(table16, [10, 10])

    def test_table_mismatch(self, table16):
        with pytest.raises(ValueError):
            SimilarityObjective(table16, [4, 4], num_switches=20)

    def test_state_from_wrong_sizes(self, table16):
        obj = SimilarityObjective(table16, [4, 4, 4, 4])
        wrong = random_partition([8, 8], 16, seed=0)
        with pytest.raises(ValueError, match="sizes"):
            obj.state_from(wrong)

    def test_value_function(self, table16):
        obj = SimilarityObjective(table16, [8, 8])
        p = random_partition([8, 8], 16, seed=1)
        ev = QualityEvaluator(table16)
        assert obj.value(p) == pytest.approx(ev.similarity(p))
