"""Tests for distance-table diagnostics."""

import numpy as np
import pytest

from repro.distance.metrics import (
    distance_hop_correlation,
    triangle_violations,
)
from repro.distance.table import DistanceTable, hop_distance_table


class TestTriangleViolations:
    def test_metric_table_has_none(self):
        vals = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        assert triangle_violations(DistanceTable(vals)) == 0

    def test_known_violation_counted(self):
        # T_02 = 5 > T_01 + T_12 = 2: ordered triples (0,1,2) and (2,1,0).
        vals = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        assert triangle_violations(DistanceTable(vals)) == 2

    def test_paper_table_is_not_metric(self, table16):
        # The paper stresses the equivalent-distance table violates the
        # triangle inequality on real topologies.
        assert triangle_violations(table16) > 0

    def test_raw_hop_table_is_metric(self, topo16):
        # Unrestricted hop distances satisfy the triangle inequality.
        from repro.distance.table import DistanceTable

        raw = DistanceTable(topo16.hop_distances().astype(float), kind="hops")
        assert triangle_violations(raw) == 0

    def test_updown_legal_distances_not_metric(self, routing16):
        # Legal up*/down* distances violate the triangle inequality: the
        # concatenation of two legal paths (up-down + up-down) is not a
        # legal path, so d(i,k) can exceed d(i,j) + d(j,k).  This is part
        # of why the paper cannot use Euclidean clustering.
        h = hop_distance_table(routing16)
        assert triangle_violations(h) > 0


class TestDistanceHopCorrelation:
    def test_identical_tables(self, table16):
        assert distance_hop_correlation(table16, table16) == pytest.approx(1.0)

    def test_high_but_imperfect(self, routing16, table16):
        h = hop_distance_table(routing16)
        r = distance_hop_correlation(table16, h)
        assert 0.5 < r < 1.0, (
            "resistance should track hops closely but not exactly "
            "(parallel-path credit)"
        )

    def test_size_mismatch(self, table16):
        small = DistanceTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            distance_hop_correlation(table16, small)
