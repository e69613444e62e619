"""Write-ahead journal of accepted-but-unreplied service requests.

Without it a request could be *accepted* (admission passed, the client
got no error) and then lost when the daemon dies with the job still
queued or in flight.  :class:`WriteAheadLog` keeps the classic WAL
discipline on a :class:`repro.journal.Journal`, which owns the file's
crash safety (atomic creation and compaction, torn-tail drop, durable
close — see :mod:`repro.journal`).

Record format, after a ``{"magic": "repro-service-wal", "version": 1}``
header:

- ``{"op": "accept", "fp": ..., "payload": ..., "priority": ...}`` —
  appended and *fsynced* when a submit is admitted, before any reply
  refers to the request (so a torn accept, which the journal drops,
  was never replied to);
- ``{"op": "done", "fp": ...}`` — appended once the reply is computed.
  Flushed but not fsynced: losing one only replays a request that
  already completed, and the deterministic execution contract
  (:func:`repro.service.execute_request`) makes the replayed reply
  byte-identical.

On open, accepts without a later done are folded by fingerprint in
acceptance order (:meth:`WriteAheadLog.pending`, for replay through the
normal queue path) and the file is compacted to just those accepts, so
it stays bounded by the in-flight window.

Appends are serialised through a single-thread executor so the daemon's
event loop never blocks on ``fsync``: :meth:`append_accept` returns a
future the server awaits before replying, and because one thread does
all writes, records land in submission order regardless of awaiter
interleaving.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.journal import Journal
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

PathLike = Union[str, Path]

_MAGIC = "repro-service-wal"
_VERSION = 1


class WalError(RuntimeError):
    """The file is not a repro service WAL (or is from a newer version)."""


class WriteAheadLog:
    """Durable journal of accepted requests, keyed by content fingerprint.

    Open it, call :meth:`pending` to recover orphans from a previous
    incarnation, then :meth:`append_accept` / :meth:`append_done` as
    requests flow.  Thread-safe: appends funnel through one writer
    thread; bookkeeping is mutex-guarded.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._writer: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # fp -> (sequence, payload, priority) for accepted-without-done.
        self._pending: Dict[str, Tuple[int, Dict[str, Any], int]] = {}
        self._seq = 0
        self._journal = Journal(self.path, magic=_MAGIC, version=_VERSION,
                                error=WalError, kind="repro service WAL",
                                short="WAL")
        self._recovered = self._recover()

    def _recover(self) -> int:
        """Fold the log's records into pending accepts, then compact."""
        records = self._journal.open()
        if records is None:
            return 0
        settled = 0
        for record in records:
            op = record.get("op")
            fp = record.get("fp")
            if op == "accept" and isinstance(fp, str):
                self._seq += 1
                self._pending[fp] = (
                    self._seq,
                    record.get("payload") or {},
                    int(record.get("priority", 0)),
                )
            elif op == "done" and isinstance(fp, str):
                if self._pending.pop(fp, None) is not None:
                    settled += 1
        if records:
            self._journal.rewrite([
                _accept_record(it["fp"], it["payload"], it["priority"])
                for it in self.pending()])
        _trace.event("service.wal.recovered", path=str(self.path),
                     pending=len(self._pending), settled=settled,
                     truncated_tail=self._journal.truncated_tail)
        return len(self._pending)

    def pending(self) -> List[Dict[str, Any]]:
        """Unsettled requests in acceptance order, for replay.

        Each item is ``{"fp": ..., "payload": ..., "priority": ...}``;
        the payload is the original submit request dict, replayable
        through the normal queue path.
        """
        with self._lock:
            items = sorted(self._pending.items(), key=lambda kv: kv[1][0])
        return [
            {"fp": fp, "payload": dict(payload), "priority": priority}
            for fp, (_, payload, priority) in items
        ]

    @property
    def recovered(self) -> int:
        """How many unsettled requests the opening recovery found."""
        return self._recovered

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #

    def append_accept(self, fp: str, payload: Dict[str, Any],
                      priority: int = 0) -> "Future[None]":
        """Journal an accepted request; resolve once it is fsync-durable.

        The server awaits the returned future before any reply that
        refers to the job, so every request a client believes accepted is
        on disk.  Duplicate fingerprints overwrite bookkeeping (dedup makes
        them the same request) but still append — replay folds them.
        """
        payload = dict(payload)
        with self._lock:
            if self._closed:
                raise WalError(f"{self.path}: WAL is closed")
            self._seq += 1
            self._pending[fp] = (self._seq, payload, int(priority))
        _metrics.inc("service.wal.accepts")
        return self._submit(_accept_record(fp, payload, priority),
                            fsync=True)

    def append_done(self, fp: str) -> "Future[None]":
        """Mark a request settled (replied).  Flushed, not fsynced.

        Losing a done record costs only a redundant (and deterministic)
        replay, so this skips the fsync to keep the reply path cheap.
        """
        with self._lock:
            if self._closed:
                return _done_future()
            self._pending.pop(fp, None)
        _metrics.inc("service.wal.dones")
        return self._submit({"op": "done", "fp": fp}, fsync=False)

    def _submit(self, record: Dict[str, Any], *,
                fsync: bool) -> "Future[None]":
        with self._lock:
            if self._closed:
                return _done_future()
            if self._writer is None:
                self._writer = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-wal")
            # One writer thread does every append, so records stay ordered.
            return self._writer.submit(self._journal.append, record,
                                       fsync=fsync)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain queued appends, fsync and close (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            writer, self._writer = self._writer, None
        if writer is not None:
            writer.shutdown(wait=True)
        self._journal.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (path, unsettled count, recovered)."""
        with self._lock:
            return {
                "path": str(self.path),
                "pending": len(self._pending),
                "recovered": self._recovered,
            }

    def __repr__(self) -> str:
        return (f"WriteAheadLog(path={str(self.path)!r}, "
                f"pending={len(self)})")


def _accept_record(fp: str, payload: Dict[str, Any],
                   priority: int) -> Dict[str, Any]:
    return {"op": "accept", "fp": fp, "payload": payload,
            "priority": int(priority)}


def _done_future() -> "Future[None]":
    """An already-resolved future (appends after close are no-ops)."""
    fut: "Future[None]" = Future()
    fut.set_result(None)
    return fut


__all__ = ["WalError", "WriteAheadLog"]
