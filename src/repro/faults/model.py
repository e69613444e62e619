"""The seedable fault model: scenarios of permanent link/switch failures.

A :class:`FaultScenario` is an immutable, order-normalized description of a
set of *permanent* faults — failed inter-switch links and failed switches
(a failed switch takes its hosts and every incident link down with it).
Scenarios are values: hashable, comparable, JSON-serializable (the
service wire carries them) and independent of any particular topology until
:meth:`FaultScenario.validate` or :func:`repro.faults.degrade.degrade`
binds them to one.

Scenario generators cover the study axes:

- :func:`single_link_scenarios` / :func:`single_switch_scenarios` —
  exhaustive single-fault enumerations;
- :func:`sample_fault_scenarios` — seeded uniform samples of ``k``-fault
  scenarios (multi-fault, optionally mixing link and switch failures),
  deterministic for a given ``(topology, k, count, seed)``.

Every generator returns scenarios in a deterministic order, so study
drivers built on them stay bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.topology.graph import Link, Topology, _normalize_link
from repro.util.rng import SeedLike, as_rng
from repro.util.validation import check_tagged


def _normalize_links(links: Iterable[Link]) -> Tuple[Link, ...]:
    out = {_normalize_link(int(u), int(v)) for u, v in links}
    return tuple(sorted(out))


def _normalize_switches(switches: Iterable[int]) -> Tuple[int, ...]:
    return tuple(sorted({int(s) for s in switches}))


@dataclass(frozen=True)
class FaultScenario:
    """An immutable set of permanent link and switch failures.

    Parameters
    ----------
    links:
        Failed inter-switch links as ``(u, v)`` pairs (order-normalized,
        deduplicated).
    switches:
        Failed switches; each takes its hosts and incident links down.
    name:
        Optional label for reports; :attr:`label` derives one when empty.
    """

    links: Tuple[Link, ...] = ()
    switches: Tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "links", _normalize_links(self.links))
        object.__setattr__(self, "switches", _normalize_switches(self.switches))
        if self.switches and self.switches[0] < 0:
            raise ValueError(f"switch ids must be >= 0, got {self.switches}")

    @property
    def num_faults(self) -> int:
        """Total number of injected faults (links plus switches)."""
        return len(self.links) + len(self.switches)

    @property
    def label(self) -> str:
        """Compact human-readable identity, e.g. ``L0-3+L2-7+S5``."""
        if self.name:
            return self.name
        parts = [f"L{u}-{v}" for u, v in self.links]
        parts += [f"S{s}" for s in self.switches]
        return "+".join(parts) if parts else "none"

    def validate(self, topology: Topology) -> None:
        """Check every fault names an element of ``topology``; raise otherwise.

        The error message names the first missing element, mirroring
        :meth:`repro.topology.graph.Topology.without_links`.
        """
        for u, v in self.links:
            if not topology.has_link(u, v):
                raise ValueError(
                    f"fault scenario {self.label}: ({u},{v}) is not a link "
                    f"of {topology.name}"
                )
        for s in self.switches:
            if not (0 <= s < topology.num_switches):
                raise ValueError(
                    f"fault scenario {self.label}: switch {s} is not a switch "
                    f"of {topology.name} (valid ids: "
                    f"0..{topology.num_switches - 1})"
                )
        if len(self.switches) >= topology.num_switches:
            raise ValueError(
                f"fault scenario {self.label} fails all "
                f"{topology.num_switches} switches of {topology.name}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict (the request wire form)."""
        return {
            "links": [list(l) for l in self.links],
            "switches": list(self.switches),
            "name": self.name,
            "type": "fault_scenario",
            "version": 1,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultScenario":
        """Decode a :meth:`to_dict` payload; ``ValueError`` if it is not one."""
        check_tagged(d, "fault_scenario")
        return cls(
            links=tuple(tuple(l) for l in d.get("links", ())),
            switches=tuple(d.get("switches", ())),
            name=d.get("name", ""),
        )


def single_link_scenarios(topology: Topology) -> List[FaultScenario]:
    """One scenario per link of ``topology``, in link order."""
    return [FaultScenario(links=(l,)) for l in topology.links]


def single_switch_scenarios(topology: Topology) -> List[FaultScenario]:
    """One scenario per switch of ``topology``, in id order."""
    return [
        FaultScenario(switches=(s,)) for s in range(topology.num_switches)
    ]


def sample_fault_scenarios(
    topology: Topology,
    *,
    num_faults: int,
    count: int,
    seed: SeedLike = 0,
    include_switches: bool = False,
) -> List[FaultScenario]:
    """``count`` distinct uniformly sampled ``num_faults``-fault scenarios.

    Each scenario draws ``num_faults`` distinct elements without
    replacement from the topology's links (and, with
    ``include_switches=True``, its switches — at most
    ``num_switches - 1`` of them per scenario so at least one switch
    survives).  Sampling is deterministic for a given seed; duplicate draws
    are rejected, so the result holds ``min(count, #distinct scenarios)``
    scenarios in draw order.
    """
    if num_faults < 1:
        raise ValueError(f"num_faults must be >= 1, got {num_faults}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    elements: List[Tuple[str, Any]] = [("link", l) for l in topology.links]
    if include_switches:
        elements += [("switch", s) for s in range(topology.num_switches)]
    if num_faults > len(elements):
        raise ValueError(
            f"cannot draw {num_faults} faults from {len(elements)} candidate "
            f"elements of {topology.name}"
        )
    rng = as_rng(seed)
    seen = set()
    out: List[FaultScenario] = []
    max_switch_faults = topology.num_switches - 1
    attempts = 0
    # Rejection sampling with a generous attempt budget: duplicates and
    # all-switches-dead draws are rare for the study sizes used here.
    while len(out) < count and attempts < 50 * max(count, 1):
        attempts += 1
        idx = rng.choice(len(elements), size=num_faults, replace=False)
        links = tuple(elements[i][1] for i in sorted(idx)
                      if elements[i][0] == "link")
        switches = tuple(elements[i][1] for i in sorted(idx)
                         if elements[i][0] == "switch")
        if len(switches) > max_switch_faults:
            continue
        scenario = FaultScenario(links=links, switches=switches)
        if scenario in seen:
            continue
        seen.add(scenario)
        out.append(scenario)
    return out


__all__ = [
    "FaultScenario",
    "single_link_scenarios",
    "single_switch_scenarios",
    "sample_fault_scenarios",
]
