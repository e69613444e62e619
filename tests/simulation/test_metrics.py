"""Tests for SimulationResult semantics."""

import math

import pytest

from repro.simulation.metrics import SimulationResult
from repro.util.stats import RunningStats


def make_result(offered, accepted, completed=10):
    lat = RunningStats()
    lat.add(20.0)
    return SimulationResult(
        offered_flits_per_switch_cycle=offered,
        accepted_flits_per_switch_cycle=accepted,
        avg_latency=lat.mean,
        latency=lat,
        total_latency=lat,
        messages_completed=completed,
        messages_generated=completed + 2,
        flits_consumed_measured=int(accepted * 16 * 1000),
        cycles_measured=1000,
        warmup_cycles=100,
    )


class TestSaturationFlag:
    def test_not_saturated_when_tracking(self):
        assert not make_result(1.0, 0.99).saturated

    def test_saturated_when_below(self):
        assert make_result(1.0, 0.5).saturated

    def test_boundary_five_percent(self):
        assert not make_result(1.0, 0.96).saturated
        assert make_result(1.0, 0.94).saturated

    def test_zero_offered_never_saturated(self):
        assert not make_result(0.0, 0.0).saturated


class TestSummary:
    def test_repr(self):
        out = repr(make_result(1.0, 0.9))
        assert "offered=1.0000" in out and "accepted=0.9000" in out

    def test_repr_nan_latency(self):
        res = make_result(1.0, 0.9)
        res.avg_latency = float("nan")
        assert "latency=nan" in repr(res)
