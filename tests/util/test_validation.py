"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_square_matrix,
)


class TestScalarChecks:
    def test_positive_ok(self):
        check_positive(0.5, "x")

    def test_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")

    def test_in_range(self):
        check_in_range(5, "x", 0, 10)
        with pytest.raises(ValueError):
            check_in_range(11, "x", 0, 10)

    def test_probability(self):
        check_probability(0.0, "p")
        check_probability(1.0, "p")
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_nan_rejected_by_positive(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")


class TestMatrixChecks:
    def test_square_ok(self):
        m = check_square_matrix([[1, 2], [3, 4]], "m")
        assert m.shape == (2, 2) and m.dtype == float

    def test_square_rejects_rect(self):
        with pytest.raises(ValueError):
            check_square_matrix(np.zeros((2, 3)), "m")

    def test_square_rejects_1d(self):
        with pytest.raises(ValueError):
            check_square_matrix([1, 2, 3], "m")
