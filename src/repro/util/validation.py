"""Argument-validation helpers with consistent error messages.

Raising early with a precise message is cheaper than debugging a silently
wrong distance table three layers up, so public constructors validate their
inputs through these helpers.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def check_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_in_range(value: float, name: str, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_probability(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    check_in_range(value, name, 0.0, 1.0)


def check_tagged(d: Any, tag: str, supported: int = 1) -> None:
    """Raise ``ValueError`` unless ``d`` is a ``tag`` payload this build reads.

    Every class codec writes ``{"type": tag, "version": n, ...}``; a
    missing version reads as 1, and a newer or non-integer one is refused
    rather than half-decoded.
    """
    got = d.get("type") if isinstance(d, dict) else type(d).__name__
    if got != tag:
        raise ValueError(f"expected a {tag!r} payload, got {got!r}")
    version = d.get("version", 1)
    if not isinstance(version, int) or version > supported:
        raise ValueError(f"{tag} version {version!r} is newer than "
                         f"supported ({supported})")


def check_square_matrix(m: Any, name: str) -> np.ndarray:
    """Coerce to a float ndarray and require it to be square 2-D."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-D matrix, got shape {a.shape}")
    return a


__all__ = [
    "check_positive",
    "check_in_range",
    "check_probability",
    "check_tagged",
    "check_square_matrix",
]
