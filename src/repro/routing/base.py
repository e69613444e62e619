"""Routing-algorithm interface.

Legality in up*/down* routing depends on *how* a packet reached its current
switch (once it has travelled a "down" link it may never go up again), so
the interface threads a :class:`Phase` through every hop decision.  A
routing algorithm without history (minimal routing) simply ignores it.

All algorithms expose:

- all-pairs *legal* shortest distances (``distances``),
- per source, the links lying on any shortest legal path to each
  destination (``shortest_path_supports``, one row per destination) — the
  input to the equivalent-distance model of :mod:`repro.distance`,
- per-hop next-hop enumeration (``next_hops``) — the input to the
  simulator's routing tables.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from repro.topology.graph import Topology


class Phase(enum.IntEnum):
    """Routing phase of a packet.

    ``UP``  — the packet has only traversed up links so far (or none);
              it may still ascend toward the spanning-tree root.
    ``DOWN`` — the packet has taken at least one down link; it may only
               descend from now on.

    Phase-free algorithms use ``UP`` throughout.
    """

    UP = 0
    DOWN = 1


# A next-hop option: (neighbor switch, phase after taking the hop).
Hop = Tuple[int, Phase]


class RoutingAlgorithm(ABC):
    """Common contract for routing algorithms over a fixed topology."""

    def __init__(self, topology: Topology):
        if not topology.is_connected():
            raise ValueError(
                f"routing requires a connected topology; {topology.name} is not"
            )
        self.topology = topology

    # -- identity ------------------------------------------------------- #

    @property
    @abstractmethod
    def name(self) -> str:
        """Short label used in reports ('updown', 'minimal', ...)."""

    def initial_phase(self) -> Phase:
        """Phase of a freshly injected packet."""
        return Phase.UP

    # -- distances ------------------------------------------------------ #

    @abstractmethod
    def distances(self) -> np.ndarray:
        """All-pairs shortest *legal* path lengths (hops), shape ``(N, N)``.

        Must satisfy ``d[i, i] == 0`` and ``d[i, j] >= hop_distance(i, j)``
        (legality can only lengthen paths).  The matrix need not be
        symmetric for arbitrary algorithms, though up*/down* distances are.
        """

    @abstractmethod
    def shortest_path_supports(self, src: int) -> np.ndarray:
        """Boolean ``(N, L)`` matrix: ``[dst, k]`` is true when
        ``topology.links[k]`` lies on at least one shortest legal
        ``src → dst`` path.

        Row ``src`` is all false.  Each row is the resistor-network support
        for the equivalent-distance model.
        """

    # -- per-hop decisions ---------------------------------------------- #

    @abstractmethod
    def next_hops(self, current: int, phase: Phase, dst: int) -> Tuple[Hop, ...]:
        """Neighbours reachable in one legal hop that lie on a shortest legal
        continuation toward ``dst`` from state ``(current, phase)``.

        Returns an empty tuple when ``current == dst`` or when no legal
        continuation exists from this state (a packet can never actually be
        in such a state if it was routed consistently from injection).
        """

    # -- helpers shared by subclasses ------------------------------------ #

    def average_distance(self) -> float:
        """Mean legal distance over ordered pairs ``i != j``."""
        d = self.distances().astype(float)
        n = d.shape[0]
        if n < 2:
            return 0.0
        return float((d.sum() - np.trace(d)) / (n * (n - 1)))


__all__ = ["Phase", "Hop", "RoutingAlgorithm"]
