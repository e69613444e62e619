"""Tests for sweep checkpoint/resume durability and bit-identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointMismatch, SweepCheckpoint
from repro.parallel import parallel_map


def _square(x):
    return x * x


class TestRoundTrip:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, key="study-1", total=3)
        ck.record(0, {"c_c": 4.5})
        ck.record(2, (1, 2, 3))
        ck2 = SweepCheckpoint(path, key="study-1", total=3)
        assert ck2.completed(3) == {0: {"c_c": 4.5}, 2: (1, 2, 3)}
        assert len(ck2) == 2
        assert 0 in ck2 and 1 not in ck2

    def test_arbitrary_picklable_results(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, key="")
        payload = {"nested": [1.5, None, ("a", frozenset({2}))]}
        ck.record(7, payload)
        assert SweepCheckpoint(path, key="").completed()[7] == payload

    def test_repr_mentions_progress(self, tmp_path):
        ck = SweepCheckpoint(tmp_path / "ck.jsonl", key="k", total=5)
        ck.record(0, 1)
        assert "completed=1" in repr(ck)
        assert "total=5" in repr(ck)


class TestMismatch:
    def test_wrong_key_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, key="run-a").record(0, 1)
        with pytest.raises(CheckpointMismatch, match="different run"):
            SweepCheckpoint(path, key="run-b")

    def test_wrong_total_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepCheckpoint(path, key="k", total=10).record(0, 1)
        with pytest.raises(CheckpointMismatch, match="10"):
            SweepCheckpoint(path, key="k", total=12)

    def test_completed_rejects_out_of_range_index(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, key="k")
        ck.record(9, 81)
        with pytest.raises(CheckpointMismatch, match="beyond sweep size"):
            SweepCheckpoint(path, key="k").completed(5)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("this is not a checkpoint\n")
        with pytest.raises(CheckpointMismatch, match="not a repro sweep"):
            SweepCheckpoint(path, key="k")


class TestTruncation:
    def test_truncated_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(path, key="k")
        ck.record(0, 10)
        ck.record(1, 20)
        # Simulate a kill mid-write: chop the last record in half.
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 12])
        ck2 = SweepCheckpoint(path, key="k")
        assert ck2.completed() == {0: 10}
        # The next record compacts the file; nothing is lost after that.
        ck2.record(1, 20)
        assert SweepCheckpoint(path, key="k").completed() == {0: 10, 1: 20}


_KILLED_SWEEP_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from repro.checkpoint import SweepCheckpoint
from repro.parallel import parallel_map

class DyingCheckpoint(SweepCheckpoint):
    \"\"\"Hard-kills the process after recording ``die_after`` jobs.\"\"\"
    die_after = {die_after}
    def record(self, index, result):
        super().record(index, result)
        if len(self) >= self.die_after:
            os._exit(42)

def cube(x):
    return x * x * x

ck = DyingCheckpoint({path!r}, key="kill-test", total=8)
parallel_map(cube, list(range(8)), checkpoint=ck)
"""


class TestKillAndResume:
    def test_killed_mid_sweep_resumes_bit_identical(self, tmp_path):
        # A subprocess dies (os._exit, no cleanup) after 3 completed jobs;
        # resuming in this process must yield results byte-identical to an
        # uninterrupted run.
        path = tmp_path / "ck.jsonl"
        script = _KILLED_SWEEP_SCRIPT.format(
            src=str(Path(__file__).resolve().parents[1] / "src"),
            die_after=3,
            path=str(path),
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 42, proc.stderr
        ck = SweepCheckpoint(path, key="kill-test", total=8)
        assert len(ck) == 3

        resumed = parallel_map(lambda x: x ** 3, list(range(8)),
                               checkpoint=ck)
        uninterrupted = [x ** 3 for x in range(8)]
        assert (json.dumps(resumed, sort_keys=True)
                == json.dumps(uninterrupted, sort_keys=True))
        # And the checkpoint is now complete: a third run executes nothing.
        final = SweepCheckpoint(path, key="kill-test", total=8)
        assert parallel_map(_refuse, list(range(8)),
                            checkpoint=final) == uninterrupted


def _refuse(x):
    raise AssertionError("resumed run re-executed a completed job")


class TestTornWriteRecovery:
    def test_recovery_then_write_compacts_and_is_durable(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with SweepCheckpoint(path, key="torn") as ck:
            ck.record(0, 1)
            ck.record(1, 2)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])          # torn tail
        with SweepCheckpoint(path, key="torn") as ck2:
            ck2.record(1, 2)                # triggers crash-safe rewrite
            ck2.record(2, 3)
        final = SweepCheckpoint(path, key="torn")
        assert final.completed() == {0: 1, 1: 2, 2: 3}
        # Every line in the compacted file parses (no torn hybrid).
        for line in path.read_text().splitlines():
            json.loads(line)
