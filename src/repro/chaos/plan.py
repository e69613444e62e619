"""Seeded, deterministic fault plans for the chaos harness.

A chaos run must be *reproducible*: the same seed injects the same faults
at the same points, so a failure found in CI replays exactly on a
laptop.  Executor plans are ``{job sequence number: FaultAction}`` maps
consumed by :class:`repro.chaos.inject.ChaoticExecutor` inside worker
processes.  Keying on the daemon's job sequence number (not wall time,
not PID) is what makes injection deterministic: job #2 crashes no matter
which worker runs it or when.  :func:`mutate_frame` damages wire
frames for the malformed-input flood, again as a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

#: Executor-side fault kinds.
EXECUTOR_FAULTS = ("crash", "hang", "error", "slow")


@dataclass(frozen=True)
class FaultAction:
    """One injected fault: what to do and (for hang/slow) for how long."""

    kind: str
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in EXECUTOR_FAULTS:
            raise ValueError(
                f"kind must be one of {EXECUTOR_FAULTS}, got {self.kind!r}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


def crash_at(*seqs: int) -> Dict[int, FaultAction]:
    """A plan that kills the worker process on the given job numbers."""
    return {int(s): FaultAction("crash") for s in seqs}


def hang_at(*seqs: int, delay: float = 30.0) -> Dict[int, FaultAction]:
    """A plan that wedges the given jobs for ``delay`` seconds each."""
    return {int(s): FaultAction("hang", delay=delay) for s in seqs}


def slow_at(*seqs: int, delay: float = 0.2) -> Dict[int, FaultAction]:
    """A plan that delays (but completes) the given jobs."""
    return {int(s): FaultAction("slow", delay=delay) for s in seqs}


def mutate_frame(raw: bytes, seed: int, index: int) -> bytes:
    """Deterministically damage one wire frame (fuzz-flood scenario).

    Picks a mutation — truncate, flip a byte, splice two halves, inject
    binary garbage, or blank the line — from a seeded draw.  Never
    returns the input unchanged (a mutation that lands on identity is
    nudged), so every flooded frame really is malformed *or* at least
    altered.
    """
    rng = random.Random(f"{seed}:{index}")
    if not raw:
        return b"\x00\n"
    body = raw.rstrip(b"\n")
    choice = rng.randrange(5)
    if choice == 0 and len(body) > 1:          # truncate
        out = body[:rng.randrange(1, len(body))]
    elif choice == 1:                          # flip one byte
        i = rng.randrange(len(body))
        flipped = bytes([body[i] ^ (1 + rng.randrange(255))])
        out = body[:i] + flipped + body[i + 1:]
    elif choice == 2 and len(body) > 3:        # splice halves
        cut = rng.randrange(1, len(body) - 1)
        out = body[cut:] + body[:cut]
    elif choice == 3:                          # binary garbage
        out = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
    else:                                      # blank / whitespace
        out = b" " * rng.randrange(1, 4)
    if out == body:
        out = out + b"\xff"
    return out + b"\n"


__all__ = [
    "EXECUTOR_FAULTS",
    "FaultAction",
    "crash_at",
    "hang_at",
    "slow_at",
    "mutate_frame",
]
