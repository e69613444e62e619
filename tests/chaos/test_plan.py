"""Unit tests for fault plans: seeded, deterministic, validated."""

from __future__ import annotations

import pytest

from repro.chaos.plan import (
    EXECUTOR_FAULTS,
    FaultAction,
    crash_at,
    hang_at,
    mutate_frame,
    slow_at,
)


class TestFaultAction:
    def test_valid_kinds_only(self):
        for kind in EXECUTOR_FAULTS:
            assert FaultAction(kind).kind == kind
        with pytest.raises(ValueError, match="kind"):
            FaultAction("meltdown")

    def test_negative_delay_is_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            FaultAction("hang", delay=-1.0)

    def test_builders_key_on_batch_numbers(self):
        assert set(crash_at(1, 3)) == {1, 3}
        assert hang_at(2, delay=5.0)[2] == FaultAction("hang", delay=5.0)
        assert set(hang_at(1, 2, 3)) == {1, 2, 3}
        assert slow_at(5)[5].kind == "slow"
        assert set(slow_at(1, 2)) == {1, 2}


class TestMutateFrame:
    FRAME = b'{"op":"submit","request":{"kind":"x","seed":3}}\n'

    def test_deterministic_per_seed_and_index(self):
        for i in range(30):
            assert mutate_frame(self.FRAME, 5, i) \
                == mutate_frame(self.FRAME, 5, i)

    def test_never_returns_the_frame_unchanged(self):
        for i in range(60):
            assert mutate_frame(self.FRAME, 5, i) != self.FRAME

    def test_always_newline_terminated(self):
        for i in range(60):
            assert mutate_frame(self.FRAME, 5, i).endswith(b"\n")

    def test_empty_input_still_yields_a_frame(self):
        assert mutate_frame(b"", 5, 0).endswith(b"\n")
