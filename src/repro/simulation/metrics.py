"""Simulation outcome records.

Units follow the paper: *traffic* is the flit reception rate in flits per
switch per cycle; *latency* is in cycles from header injection to tail
delivery; *throughput* is the maximum accepted traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.util.stats import RunningStats


@dataclass
class SimulationResult:
    """Measurements of one simulation run at one offered load.

    ``meta`` carries deterministic context (topology/routing names, the
    engine that produced the run, arbitration-conflict counters, skipped
    cycles); ``perf`` carries wall-clock phase timings.  Wall times vary
    run to run, so ``perf`` is excluded from equality: two results are
    equal exactly when their seed-determined payloads are.
    """

    offered_flits_per_switch_cycle: float
    accepted_flits_per_switch_cycle: float
    avg_latency: float
    latency: RunningStats
    total_latency: RunningStats
    messages_completed: int
    messages_generated: int
    flits_consumed_measured: int
    cycles_measured: int
    warmup_cycles: int
    latency_percentiles: Optional[Dict[str, float]] = None
    meta: Dict[str, object] = field(default_factory=dict)
    perf: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: accepted materially below offered.

        Accepted tracking offered within 5 % means the network still
        delivers what the sources produce; a larger shortfall marks
        saturation (source queues growing).
        """
        if self.offered_flits_per_switch_cycle <= 0:
            return False
        ratio = (self.accepted_flits_per_switch_cycle
                 / self.offered_flits_per_switch_cycle)
        return ratio < 0.95

    def __repr__(self) -> str:
        lat = "nan" if math.isnan(self.avg_latency) else f"{self.avg_latency:.1f}"
        return (
            f"SimulationResult(offered={self.offered_flits_per_switch_cycle:.4f}, "
            f"accepted={self.accepted_flits_per_switch_cycle:.4f}, "
            f"latency={lat}, completed={self.messages_completed})"
        )


__all__ = ["SimulationResult"]
