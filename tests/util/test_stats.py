"""Tests for repro.util.stats against closed-form values and numpy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import RunningStats, pearson, summarize

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = 0.5 * x + rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_degenerate_constant(self):
        assert math.isnan(pearson([1, 1, 1], [1, 2, 3]))

    def test_degenerate_short(self):
        assert math.isnan(pearson([1.0], [2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @given(st.lists(finite_floats, min_size=3, max_size=30))
    def test_self_correlation_is_one_or_nan(self, xs):
        r = pearson(xs, xs)
        assert math.isnan(r) or r == pytest.approx(1.0)

    @given(st.lists(st.tuples(finite_floats, finite_floats),
                    min_size=3, max_size=30))
    def test_bounded(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        r = pearson(x, y)
        assert math.isnan(r) or -1.0000001 <= r <= 1.0000001


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s["n"] == 0 and math.isnan(s["mean"])

    def test_single(self):
        s = summarize([4.0])
        assert s == {"n": 1, "mean": 4.0, "std": 0.0, "min": 4.0,
                     "max": 4.0, "median": 4.0}

    def test_matches_numpy(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0]
        s = summarize(xs)
        assert s["mean"] == pytest.approx(np.mean(xs))
        assert s["std"] == pytest.approx(np.std(xs, ddof=1))
        assert s["median"] == pytest.approx(np.median(xs))


class TestRunningStats:
    def test_empty(self):
        rs = RunningStats()
        assert rs.count == 0 and math.isnan(rs.mean)

    def test_matches_numpy(self):
        xs = np.random.default_rng(1).normal(5, 2, size=200)
        rs = RunningStats()
        for x in xs:
            rs.add(float(x))
        assert rs.mean == pytest.approx(xs.mean())
        assert rs.std == pytest.approx(xs.std(ddof=1))
        assert rs.min == pytest.approx(xs.min())
        assert rs.max == pytest.approx(xs.max())

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    def test_variance_non_negative(self, xs):
        rs = RunningStats()
        for x in xs:
            rs.add(x)
        assert rs.variance >= -1e-6
