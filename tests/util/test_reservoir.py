"""Tests for the reservoir sampler and percentile reporting."""

import math

import numpy as np
import pytest

from repro.util.stats import ReservoirSampler


class TestReservoirSampler:
    def test_small_stream_kept_exactly(self):
        rs = ReservoirSampler(capacity=100, seed=0)
        for x in range(50):
            rs.add(float(x))
        assert rs.percentile(50) == pytest.approx(24.5)
        assert rs.percentile(0) == 0.0
        assert rs.percentile(100) == 49.0

    def test_capacity_bounded(self):
        rs = ReservoirSampler(capacity=64, seed=1)
        for x in range(10_000):
            rs.add(float(x))
        assert len(rs._sample) == 64
        assert rs.count == 10_000

    def test_uniformity_of_sample(self):
        # Sampled median of a uniform stream should track the true median.
        rs = ReservoirSampler(capacity=512, seed=2)
        for x in range(20_000):
            rs.add(float(x))
        assert rs.percentile(50) == pytest.approx(10_000, rel=0.15)

    def test_empty_percentile_nan(self):
        rs = ReservoirSampler()
        assert math.isnan(rs.percentile(50))

    def test_empty_percentiles_dict_is_explicitly_empty(self):
        # Regression: an empty reservoir used to emit NaN-valued entries,
        # which are not valid JSON and broke downstream rendering.
        rs = ReservoirSampler()
        assert rs.percentiles() == {}
        assert rs.percentiles(qs=(10, 50, 90)) == {}
        with pytest.raises(ValueError):
            rs.percentiles(qs=(101,))

    def test_empty_histogram_snapshot_is_explicitly_empty(self):
        from repro.obs.metrics import Histogram

        h = Histogram("latency")
        assert h.snapshot() == {"count": 0}
        h.observe(float("nan"))  # ignored, still empty
        assert h.snapshot() == {"count": 0}
        h.observe(3.0)
        snap = h.snapshot()
        assert snap["count"] == 1 and snap["p50"] == 3.0

    def test_percentiles_dict(self):
        rs = ReservoirSampler(seed=3)
        for x in np.linspace(0, 100, 101):
            rs.add(float(x))
        p = rs.percentiles()
        assert set(p) == {"p50", "p95", "p99"}
        assert p["p50"] == pytest.approx(50.0)
        assert p["p95"] == pytest.approx(95.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSampler(capacity=0)
        with pytest.raises(ValueError):
            ReservoirSampler().percentile(101)

    def test_deterministic(self):
        def run():
            rs = ReservoirSampler(capacity=16, seed=9)
            for x in range(1000):
                rs.add(float(x))
            return rs.percentiles()

        assert run() == run()


class TestSimulatorPercentiles:
    def test_result_carries_percentiles(self, rtable16, topo16):
        from repro.simulation.config import SimulationConfig
        from repro.simulation.network import WormholeNetworkSimulator
        from repro.simulation.traffic import UniformTraffic

        cfg = SimulationConfig(warmup_cycles=100, measure_cycles=600, seed=4)
        sim = WormholeNetworkSimulator(rtable16, UniformTraffic(topo16),
                                       0.01, cfg)
        res = sim.run()
        p = res.latency_percentiles
        assert p is not None
        assert p["p50"] <= p["p95"] <= p["p99"]
        # Median sampled latency brackets the running mean loosely.
        assert 0.3 * res.avg_latency <= p["p50"] <= 2.0 * res.avg_latency
