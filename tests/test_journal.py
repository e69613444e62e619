"""The torn-write matrix for both users of :class:`repro.journal.Journal`.

Every case runs against :class:`SweepCheckpoint` and
:class:`WriteAheadLog` through a small adapter that knows how to open
each, apply the n-th step of a fixed record stream, and read back the
state the journal recovered.
"""

from __future__ import annotations

import gc
import json
import warnings

import pytest

from repro.checkpoint import CheckpointMismatch, SweepCheckpoint
from repro.service.wal import WalError, WriteAheadLog

STEPS = 4


class CheckpointUser:
    error = CheckpointMismatch
    magic = "repro-sweep-checkpoint"
    foreign = "not a repro sweep checkpoint"
    # A file as written before the shared journal: header with key/total,
    # one pickled record (7).
    legacy = ('{"magic": "repro-sweep-checkpoint", "version": 1, '
              '"key": "k", "total": 4}\n'
              '{"i": 0, "r": "gAVLBy4="}\n')
    legacy_view = {0: 7}

    @staticmethod
    def open(path):
        return SweepCheckpoint(path, key="k", total=4)

    @staticmethod
    def step(journal, n):
        journal.record(n, {"v": n})

    @staticmethod
    def extra(journal):
        journal.record(3, "extra")

    @staticmethod
    def with_extra(view):
        return {**view, 3: "extra"}

    @staticmethod
    def view(journal):
        return journal.completed()


_WAL_STREAM = [("accept", "fp-a"), ("accept", "fp-b"), ("done", "fp-a"),
               ("accept", "fp-c")]


class WalUser:
    error = WalError
    magic = "repro-service-wal"
    foreign = "not a repro service WAL"
    # A file as written before the shared journal: header, two accepts,
    # one done.
    legacy = ('{"magic": "repro-service-wal", "version": 1}\n'
              '{"fp": "fp-a", "op": "accept", "payload": {"seed": 1}, '
              '"priority": 0}\n'
              '{"fp": "fp-b", "op": "accept", "payload": {"seed": 2}, '
              '"priority": 3}\n'
              '{"fp": "fp-a", "op": "done"}\n')
    legacy_view = [("fp-b", {"seed": 2}, 3)]

    @staticmethod
    def open(path):
        return WriteAheadLog(path)

    @staticmethod
    def step(journal, n):
        op, fp = _WAL_STREAM[n]
        if op == "accept":
            journal.append_accept(fp, {"seed": n}, priority=n).result(10)
        else:
            journal.append_done(fp).result(10)

    @staticmethod
    def extra(journal):
        journal.append_accept("fp-extra", {"seed": 99}).result(10)

    @staticmethod
    def with_extra(view):
        return [*view, ("fp-extra", {"seed": 99}, 0)]

    @staticmethod
    def view(journal):
        return [(it["fp"], it["payload"], it["priority"])
                for it in journal.pending()]


@pytest.fixture(params=[CheckpointUser, WalUser], ids=["checkpoint", "wal"])
def user(request):
    return request.param


def _write_stream(user, path):
    """Open, apply every step, close.

    Returns the file size right after open, the file size after each
    step, the recovered view after each number of steps, and the bytes.
    """
    journal = user.open(path)
    opened = path.stat().st_size if path.exists() else 0
    ends, views = [], [user.view(journal)]
    for n in range(STEPS):
        user.step(journal, n)
        ends.append(path.stat().st_size)
        views.append(user.view(journal))
    journal.close()
    return opened, ends, views, path.read_bytes()


def _cuts(user, path):
    """Yield (cut, whole records) for a cut at every appended byte."""
    opened, ends, views, raw = _write_stream(user, path)
    for cut in range(opened, len(raw)):
        path.write_bytes(raw[:cut])
        # A record is whole once every byte but its newline survived.
        yield cut, views[sum(cut >= end - 1 for end in ends)]


def _reopened_view(user, path):
    with user.open(path) as journal:
        return user.view(journal)


def test_cut_at_every_byte_sees_exactly_the_whole_records(user, tmp_path):
    path = tmp_path / "journal"
    for cut, expected in _cuts(user, path):
        assert _reopened_view(user, path) == expected, f"cut at {cut}"


def test_recover_then_append_loses_no_whole_record(user, tmp_path):
    path = tmp_path / "journal"
    for cut, expected in _cuts(user, path):
        with user.open(path) as journal:
            user.extra(journal)
        assert _reopened_view(user, path) == user.with_extra(expected), \
            f"cut at {cut}"
        for line in path.read_text().splitlines():
            json.loads(line)


def test_leftover_tmp_from_a_crashed_rewrite_is_ignored(user, tmp_path):
    path = tmp_path / "journal"
    tmp = tmp_path / "journal.tmp"
    tmp.write_text("garbage from a rewrite that died before its replace\n")
    with user.open(path) as journal:
        user.step(journal, 0)
        expected = user.view(journal)
    assert not tmp.exists()             # the creating rewrite reclaimed it
    tmp.write_text("more garbage\n")
    assert _reopened_view(user, path) == expected


def test_durable_close_then_reopen_and_append(user, tmp_path):
    path = tmp_path / "journal"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with user.open(path) as journal:
            user.step(journal, 0)
            user.step(journal, 1)
        journal.close()                 # idempotent
        with user.open(path) as reopened:
            user.step(reopened, 2)
            expected = user.view(reopened)
        del journal, reopened
        gc.collect()
    assert _reopened_view(user, path) == expected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)
            and str(path) in str(w.message)] == []


@pytest.mark.parametrize("header", [
    "this is not a journal",
    '{"some": "other json"}',
    '{"magic": "repro-something-else", "version": 1}',
], ids=["text", "other-json", "other-magic"])
def test_foreign_file_raises_the_users_error(user, tmp_path, header):
    path = tmp_path / "journal"
    path.write_text(header + "\n")
    with pytest.raises(user.error, match=user.foreign):
        user.open(path)


def test_newer_version_raises_the_users_error(user, tmp_path):
    path = tmp_path / "journal"
    path.write_text(json.dumps({"magic": user.magic, "version": 99}) + "\n")
    with pytest.raises(user.error, match="version 99 is newer than supported"):
        user.open(path)


def test_files_in_the_original_format_load_unchanged(user, tmp_path):
    path = tmp_path / "journal"
    path.write_text(user.legacy)
    assert _reopened_view(user, path) == user.legacy_view
    with user.open(path) as journal:
        user.extra(journal)
    assert _reopened_view(user, path) == user.with_extra(user.legacy_view)
