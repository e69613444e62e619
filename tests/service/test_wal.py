"""Unit tests for the write-ahead journal: recovery, folding, compaction.

Torn writes are covered for every journal user in tests/test_journal.py.
"""

from __future__ import annotations

import json

import pytest

from repro.service.wal import WalError, WriteAheadLog


def payload(i: int) -> dict:
    return {"kind": "schedule_request", "seed": i}


class TestAppendAndPending:
    def test_fresh_log_is_empty(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.wal") as wal:
            assert len(wal) == 0
            assert wal.pending() == []
            assert wal.recovered == 0

    def test_accept_then_done_settles_the_entry(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.wal") as wal:
            wal.append_accept("fp-a", payload(1)).result(timeout=10)
            assert len(wal) == 1
            wal.append_done("fp-a").result(timeout=10)
            assert len(wal) == 0

    def test_pending_preserves_acceptance_order(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.wal") as wal:
            for i, fp in enumerate(["fp-c", "fp-a", "fp-b"]):
                wal.append_accept(fp, payload(i), priority=i).result(10)
            items = wal.pending()
        assert [it["fp"] for it in items] == ["fp-c", "fp-a", "fp-b"]
        assert [it["priority"] for it in items] == [0, 1, 2]

    def test_append_after_close_raises_typed(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal")
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append_accept("fp", payload(0))
        # done after close is a harmless no-op (shutdown race).
        wal.append_done("fp").result(timeout=10)


class TestRecovery:
    def test_unsettled_accepts_survive_a_reopen(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            wal.append_accept("fp-a", payload(1)).result(10)
            wal.append_accept("fp-b", payload(2)).result(10)
            wal.append_done("fp-a").result(10)
        reopened = WriteAheadLog(path)
        try:
            assert reopened.recovered == 1
            items = reopened.pending()
            assert [it["fp"] for it in items] == ["fp-b"]
            assert items[0]["payload"] == payload(2)
        finally:
            reopened.close()

    def test_opening_compacts_settled_entries_away(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            for i in range(5):
                wal.append_accept(f"fp-{i}", payload(i)).result(10)
                wal.append_done(f"fp-{i}").result(10)
            wal.append_accept("fp-live", payload(9)).result(10)
        WriteAheadLog(path).close()
        lines = [ln for ln in path.read_text().splitlines() if ln]
        # Header + the one live accept; the ten settled records are gone.
        assert len(lines) == 2
        assert json.loads(lines[1])["fp"] == "fp-live"

    def test_not_a_wal_file_raises_typed(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_text('{"some": "other json"}\n')
        with pytest.raises(WalError, match="not a repro service WAL"):
            WriteAheadLog(path)

    def test_newer_version_raises_typed(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_text(
            '{"magic": "repro-service-wal", "version": 99}\n')
        with pytest.raises(WalError, match="newer"):
            WriteAheadLog(path)

    def test_duplicate_accepts_fold_to_one_pending_entry(self, tmp_path):
        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            wal.append_accept("fp-a", payload(1)).result(10)
            wal.append_accept("fp-a", payload(1)).result(10)
        reopened = WriteAheadLog(path)
        try:
            assert reopened.recovered == 1
            assert len(reopened.pending()) == 1
        finally:
            reopened.close()


class TestIntrospection:
    def test_status_is_json_ready(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.wal") as wal:
            wal.append_accept("fp-a", payload(1)).result(10)
            status = wal.status()
        assert status["pending"] == 1
        assert status["recovered"] == 0
        assert status["path"].endswith("w.wal")
        assert "fp" not in status        # no payloads leak into status

    def test_repr_mentions_the_path_and_pending_count(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.wal") as wal:
            assert "pending=0" in repr(wal)
