"""Tests for SimulationConfig validation."""

import dataclasses

import pytest

from repro.simulation.config import SimulationConfig


class TestConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.message_length == 16
        assert cfg.buffer_flits == 2
        assert cfg.adaptive is True

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.message_length = 8

    @pytest.mark.parametrize("kwargs", [
        {"message_length": 0},
        {"buffer_flits": 0},
        {"delivery_channels": 0},
        {"warmup_cycles": -1},
        {"measure_cycles": 0},
        {"queue_capacity": 0},
        {"engine": "batch"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_replace_works(self):
        cfg = SimulationConfig()
        cfg2 = dataclasses.replace(cfg, seed=99)
        assert cfg2.seed == 99 and cfg2.message_length == cfg.message_length
