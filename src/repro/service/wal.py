"""Write-ahead journal of accepted-but-unreplied service requests.

The daemon's durability gap before this module: a request could be
*accepted* (admission passed, the client got no error) and then lost —
daemon killed with the job still queued or in flight — with no record
that it ever existed.  :class:`WriteAheadLog` closes the gap with the
classic WAL discipline:

- **accept record before the reply path commits** — when a submit is
  admitted, ``{"op": "accept", "fp": ..., "payload": ...}`` is appended
  and *fsynced* before any reply refers to the request; the daemon
  replies only to requests the log would survive;
- **done record after the reply** — once a response (or typed error) has
  been computed and the stored result is durable in-process, ``{"op":
  "done", "fp": ...}`` marks the entry settled.  Done records are
  flushed but not fsynced: losing one is safe — replay re-executes a
  request that already completed, and the deterministic execution
  contract (:mod:`repro.service.batch`) makes the replayed reply
  byte-identical;
- **replay on restart** — :meth:`WriteAheadLog.pending` returns every
  accepted-without-done payload in acceptance order; the restarted
  daemon re-submits them through its normal queue path, so replayed work
  obeys the same batching/dedup/store rules as live work;
- **torn-tail tolerance** — a record half-written at the kill instant
  parses as garbage and is dropped (with everything after it), exactly
  like :class:`repro.checkpoint.SweepCheckpoint`;
- **crash-safe compaction** — opening the log rewrites it with settled
  entries removed via :func:`repro.checkpoint.atomic_write_text`
  (temp + ``os.replace`` + directory fsync), so the file stays bounded
  by the in-flight window rather than growing with request count.

Appends are serialised through a single-thread executor so the daemon's
event loop never blocks on ``fsync``: :meth:`append_accept` returns a
future the server awaits before replying, and because one thread does
all writes, records land in submission order regardless of awaiter
interleaving.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.checkpoint import atomic_write_text, fsync_dir
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

PathLike = Union[str, Path]

_MAGIC = "repro-service-wal"
_VERSION = 1


class WalError(RuntimeError):
    """The file is not a repro service WAL (or is from a newer version)."""


def _parse_line(raw: str) -> Optional[Dict[str, Any]]:
    """One JSONL record, or ``None`` for garbage (torn tail)."""
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


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
        self._fh = None
        self._closed = False
        # fp -> (sequence, payload, priority) for accepted-without-done.
        self._pending: Dict[str, Tuple[int, Dict[str, Any], int]] = {}
        self._seq = 0
        self._recovered = self._load_and_compact()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    def _load_and_compact(self) -> int:
        """Read the log, keep unsettled entries, rewrite compacted."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            return 0
        lines = self.path.read_text().split("\n")
        header = _parse_line(lines[0])
        if header is None or header.get("magic") != _MAGIC:
            raise WalError(f"{self.path} is not a repro service WAL")
        if header.get("version", 0) > _VERSION:
            raise WalError(
                f"{self.path}: WAL version {header.get('version')} is newer "
                f"than supported ({_VERSION})"
            )
        torn = False
        settled = 0
        for raw in lines[1:]:
            if not raw:
                continue
            record = _parse_line(raw)
            if record is None:
                # Torn tail from a mid-write kill: the accept it belonged
                # to never made it to a client reply either — drop it.
                torn = True
                break
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
        self._compact()
        _trace.event("service.wal.recovered", path=str(self.path),
                     pending=len(self._pending), settled=settled,
                     truncated_tail=torn)
        return len(self._pending)

    def _compact(self) -> None:
        """Rewrite the log with only unsettled accepts (crash-safe)."""
        lines = [json.dumps({"magic": _MAGIC, "version": _VERSION}) + "\n"]
        for fp, (_, payload, priority) in sorted(
                self._pending.items(), key=lambda kv: kv[1][0]):
            lines.append(json.dumps(
                {"op": "accept", "fp": fp, "payload": payload,
                 "priority": priority},
                sort_keys=True) + "\n")
        atomic_write_text(self.path, "".join(lines))

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
        with self._lock:
            if self._closed:
                raise WalError(f"{self.path}: WAL is closed")
            self._seq += 1
            self._pending[fp] = (self._seq, dict(payload), int(priority))
        line = json.dumps(
            {"op": "accept", "fp": fp, "payload": payload,
             "priority": int(priority)},
            sort_keys=True) + "\n"
        _metrics.inc("service.wal.accepts")
        return self._submit(line, fsync=True)

    def append_done(self, fp: str) -> "Future[None]":
        """Mark a request settled (replied).  Flushed, not fsynced.

        Losing a done record costs only a redundant (and deterministic)
        replay, so this skips the fsync to keep the reply path cheap.
        """
        with self._lock:
            if self._closed:
                return _done_future()
            self._pending.pop(fp, None)
        line = json.dumps({"op": "done", "fp": fp}, sort_keys=True) + "\n"
        _metrics.inc("service.wal.dones")
        return self._submit(line, fsync=False)

    def _submit(self, line: str, *, fsync: bool) -> "Future[None]":
        with self._lock:
            if self._closed:
                return _done_future()
            if self._writer is None:
                self._writer = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-wal")
            return self._writer.submit(self._write, line, fsync)

    def _write(self, line: str, fsync: bool) -> None:
        """Runs on the single writer thread — appends stay ordered."""
        if self._fh is None or self._fh.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = open(self.path, "a")
            if fresh:
                self._fh.write(json.dumps(
                    {"magic": _MAGIC, "version": _VERSION}) + "\n")
        self._fh.write(line)
        self._fh.flush()
        if fsync:
            os.fsync(self._fh.fileno())

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
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            fsync_dir(self.path.parent)
        self._fh = None

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


def _done_future() -> "Future[None]":
    """An already-resolved future (appends after close are no-ops)."""
    fut: "Future[None]" = Future()
    fut.set_result(None)
    return fut


__all__ = ["WalError", "WriteAheadLog"]
