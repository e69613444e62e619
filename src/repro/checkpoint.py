"""Checkpoint/resume for long sweeps and multi-start searches.

A :class:`SweepCheckpoint` records, per completed job of a
:func:`repro.parallel.parallel_map` run, the job index and its pickled
result.  A run that dies — killed process, broken pool, a job that
raised — leaves every completed job on disk; re-running with the same
checkpoint executes only the missing jobs and merges in job order, so the
resumed run's results are bit-identical to an uninterrupted one (the jobs
themselves are deterministic by the library's parallel contract).

Record format: a :class:`repro.journal.Journal` whose header carries
``key`` (the caller's identity of the run configuration, e.g. a topology
fingerprint plus study parameters) and, when known, ``total`` (the sweep
size); each record is ``{"i": job index, "r": base64(pickle(result))}``
and is fsynced before the job counts as completed.  Reopening against a
different ``key`` or ``total`` raises :class:`CheckpointMismatch` instead
of silently mixing runs.  Creation, torn-tail recovery and durable close
are the journal's (see :mod:`repro.journal`).
"""

from __future__ import annotations

import base64
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.journal import Journal
from repro.obs import trace as _trace

PathLike = Union[str, Path]

_MAGIC = "repro-sweep-checkpoint"
_VERSION = 1


class CheckpointMismatch(RuntimeError):
    """The checkpoint on disk belongs to a different run configuration."""


class SweepCheckpoint:
    """Append-only record of completed jobs of one sweep.

    Parameters
    ----------
    path:
        Checkpoint file; created (with parents) when missing.
    key:
        Identity of the run configuration.  Loading an existing file with
        a different key raises :class:`CheckpointMismatch`.
    total:
        Expected number of jobs; checked against the header when both are
        known.
    """

    def __init__(self, path: PathLike, *, key: str = "",
                 total: Optional[int] = None):
        self.path = Path(path)
        self.key = str(key)
        self.total = total
        self._results: Dict[int, Any] = {}
        self._journal = Journal(self.path, magic=_MAGIC, version=_VERSION,
                                error=CheckpointMismatch,
                                kind="repro sweep checkpoint",
                                short="checkpoint")
        fields: Dict[str, Any] = {"key": self.key}
        if total is not None:
            fields["total"] = int(total)
        records = self._journal.open(**fields)
        if records is not None:
            self._load(self._journal.header, records)

    def _load(self, header: Dict[str, Any],
              records: List[Dict[str, Any]]) -> None:
        if header.get("key", "") != self.key:
            raise CheckpointMismatch(
                f"{self.path} was written for a different run "
                f"(key {header.get('key', '')!r}, expected {self.key!r}); "
                "delete it or pass a matching configuration"
            )
        header_total = header.get("total")
        if (self.total is not None and header_total is not None
                and int(header_total) != int(self.total)):
            raise CheckpointMismatch(
                f"{self.path} records a sweep of {header_total} jobs, "
                f"this run has {self.total}"
            )
        if self.total is None and header_total is not None:
            self.total = int(header_total)
        for entry in records:
            self._results[int(entry["i"])] = pickle.loads(
                base64.b64decode(entry["r"])
            )
        _trace.event("checkpoint.load", path=str(self.path),
                     completed=len(self._results), total=self.total,
                     truncated_tail=self._journal.truncated_tail)

    def record(self, index: int, result: Any) -> None:
        """Persist one completed job durably (flush + fsync)."""
        index = int(index)
        self._results[index] = result
        payload = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        self._journal.append({"i": index, "r": payload}, fsync=True)

    def close(self) -> None:
        """Flush, fsync and close the append handle (idempotent)."""
        self._journal.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def completed(self, total: Optional[int] = None) -> Dict[int, Any]:
        """Completed results as ``{job index: result}``.

        ``total`` (when given) is validated against the recorded sweep
        size; indices at or beyond it raise :class:`CheckpointMismatch`
        rather than being silently dropped.
        """
        if total is not None:
            if self.total is not None and int(total) != int(self.total):
                raise CheckpointMismatch(
                    f"{self.path} records a sweep of {self.total} jobs, "
                    f"this run has {total}"
                )
            out_of_range = [i for i in self._results if i >= int(total)]
            if out_of_range:
                raise CheckpointMismatch(
                    f"{self.path} contains job index "
                    f"{max(out_of_range)} beyond sweep size {total}"
                )
        return dict(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, index: int) -> bool:
        return int(index) in self._results

    def __repr__(self) -> str:
        return (
            f"SweepCheckpoint(path={str(self.path)!r}, key={self.key!r}, "
            f"completed={len(self._results)}, total={self.total})"
        )


__all__ = ["CheckpointMismatch", "SweepCheckpoint"]
