"""One crash-safe JSONL journal: a header line, then one record per line.

:class:`Journal` owns the file format and crash discipline shared by
:class:`repro.checkpoint.SweepCheckpoint` and
:class:`repro.service.wal.WriteAheadLog`, which own only what their
records mean:

- the header ``{"magic", "version", ...fields}`` is checked on open;
- the file is only created or rewritten by :func:`atomic_write_text`, and
  appends go only to a file whose header is durable, so a crash can cut
  at most the last appended record;
- reading drops the first unparseable line and everything after it
  (:attr:`Journal.truncated_tail`); the intact prefix is rewritten before
  the next append;
- appends write one line on a kept-open handle, fsynced on request;
  :meth:`Journal.close` fsyncs and is idempotent.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

PathLike = Union[str, Path]


def fsync_dir(directory: PathLike) -> None:
    """fsync a directory so a just-completed rename survives a power cut."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directories not fsyncable here
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` crash-safely: temp + ``os.replace``.

    The new content is written to a temporary sibling, flushed and fsynced,
    then atomically swapped in; the directory entry is fsynced so the
    rename itself is durable.  A crash at any byte leaves either the old
    file or the complete new one — never a torn hybrid.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def _parse_line(raw: str) -> Optional[Dict[str, Any]]:
    """One JSONL record, or ``None`` for garbage (a torn tail)."""
    try:
        obj = json.loads(raw)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


class Journal:
    """A header-checked, append-only JSONL file with crash-safe rewrites.

    A foreign or too-new file raises ``error`` with the messages
    ``"{path} is not a {kind}"`` and
    ``"{path}: {short} version N is newer than supported (V)"``.
    """

    def __init__(self, path: PathLike, *, magic: str, version: int,
                 error: Callable[[str], Exception], kind: str, short: str):
        self.path = Path(path)
        self._magic = magic
        self._version = version
        self._error = error
        self._kind = kind
        self._short = short
        self.header: Dict[str, Any] = {}
        self.truncated_tail = False
        # Intact record lines still to be rewritten before the next
        # append (set when the file does not end on a whole record).
        self._unsealed: Optional[List[str]] = None
        self._fh = None

    def open(self, **fields: Any) -> Optional[List[Dict[str, Any]]]:
        """Read the journal's intact records.

        A missing or empty file is created holding a header of ``fields``
        and ``None`` is returned.  Otherwise the file's own header is
        checked and kept in :attr:`header`, and its intact records are
        returned in file order.
        """
        text = self.path.read_text() if self.path.exists() else ""
        if not text:
            self.header = {"magic": self._magic, "version": self._version,
                           **fields}
            self._rewrite_lines([])
            return None
        lines = text.split("\n")
        header = _parse_line(lines[0])
        if header is None or header.get("magic") != self._magic:
            raise self._error(f"{self.path} is not a {self._kind}")
        if header.get("version", 0) > self._version:
            raise self._error(
                f"{self.path}: {self._short} version {header.get('version')} "
                f"is newer than supported ({self._version})"
            )
        self.header = header
        kept: List[str] = []
        records: List[Dict[str, Any]] = []
        for raw in lines[1:]:
            if not raw:
                continue
            record = _parse_line(raw)
            if record is None:
                self.truncated_tail = True
                break
            kept.append(raw)
            records.append(record)
        if not text.endswith("\n"):
            # A torn tail, or a whole last record that lost its newline:
            # either way a plain append would fuse onto it.
            self._unsealed = kept
        return records

    def rewrite(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the file with the header and ``records``."""
        self._rewrite_lines([json.dumps(r, sort_keys=True) for r in records])

    def _rewrite_lines(self, lines: List[str]) -> None:
        self.close()
        atomic_write_text(self.path, "".join(
            line + "\n" for line in [json.dumps(self.header), *lines]))
        self._unsealed = None

    def append(self, record: Dict[str, Any], *, fsync: bool) -> None:
        """Append one record line; fsync it when ``fsync`` is true."""
        if self._unsealed is not None:
            self._rewrite_lines(self._unsealed)
        if self._fh is None:
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        if fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, fsync and close the append handle (idempotent)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["Journal", "atomic_write_text", "fsync_dir"]
