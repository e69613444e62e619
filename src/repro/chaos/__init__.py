"""repro.chaos — a seeded, deterministic fault-injection harness.

The adversary the service tier is hardened against.  Three modules:

- :mod:`~repro.chaos.plan` — seeded fault plans: executor plans keyed on
  job sequence numbers, and the frame mutator for the malformed-input
  flood;
- :mod:`~repro.chaos.inject` — the injectors: a picklable
  :class:`ChaoticExecutor` that crashes/hangs/errors inside worker
  processes, :func:`kill_workers` for external node loss,
  :func:`corrupt_store_entry` for result-store damage, and the
  :class:`ChaosProxy` TCP man-in-the-middle that tears, drops or
  garbles reply frames;
- :mod:`~repro.chaos.harness` — the scenarios.  Each stands up a real
  daemon, injects one fault class and checks the invariant: *every
  accepted request terminates with a byte-identical correct reply or an
  explicit typed error — never a hang, never silent loss.*

Everything is a pure function of its seed: a scenario that fails in CI
replays identically from ``repro chaos --scenario NAME --seed N``.
Production code never imports this package.
"""

from repro.chaos.harness import (
    REQUEST_BOUND_SECONDS,
    RequestOutcome,
    SCENARIOS,
    ScenarioResult,
    render_report,
    run_scenarios,
)
from repro.chaos.inject import (
    CRASH_EXIT_CODE,
    ChaosProxy,
    ChaoticExecutor,
    corrupt_store_entry,
    kill_workers,
)
from repro.chaos.plan import (
    EXECUTOR_FAULTS,
    FaultAction,
    crash_at,
    hang_at,
    mutate_frame,
    slow_at,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ChaosProxy",
    "ChaoticExecutor",
    "EXECUTOR_FAULTS",
    "FaultAction",
    "REQUEST_BOUND_SECONDS",
    "RequestOutcome",
    "SCENARIOS",
    "ScenarioResult",
    "corrupt_store_entry",
    "crash_at",
    "hang_at",
    "kill_workers",
    "mutate_frame",
    "render_report",
    "run_scenarios",
    "slow_at",
]
