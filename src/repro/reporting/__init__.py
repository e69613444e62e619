"""What-if variation reports and the live operator console.

The paper's whole argument is comparative — estimated communication cost
``C_c`` against measured latency and throughput across mappings, loads
and topologies (Figures 1-6) — and this package is where the repo makes
that comparison an artifact instead of a scroll of text tables:

- :mod:`repro.reporting.study`   — a declarative *variation study*: a
  grid of schedule variations (mappings x fault sets x engines) executed
  through the existing sweep machinery, one serialize-
  round-trippable :class:`VariationRecord` per cell with ``C_c``,
  replicated latency/throughput confidence intervals, the fault study's
  repair gap and the cell's cache/engine counters;
- :mod:`repro.reporting.render`  — the comparative markdown renderer:
  per-variation deltas against a named baseline with regression
  highlighting;
- :mod:`repro.reporting.html`    — the same comparison as one
  self-contained HTML file (inline CSS + SVG, no external JS/CDN),
  including the C_c-vs-measured scatter;
- :mod:`repro.reporting.console` — a minimal HTTP/1.0 operator console
  (``/healthz``, ``/metrics``, ``/status``, ``/report``) served either
  standalone (``repro report --serve``) or by the scheduling daemon
  alongside its wire protocol (``repro serve --console-port``).

Determinism contract: a study's records and both rendered reports are
pure functions of the spec and its seed — no wall-clock timestamps, no
environment-dependent fields — so ``repro report --study spec.json``
produces byte-identical artifacts on every rerun.
"""

from repro.reporting.console import ConsoleServer, serve_console
from repro.reporting.html import render_html, render_status_page
from repro.reporting.render import baseline_record, render_markdown
from repro.reporting.study import (
    StudySpec,
    VariationRecord,
    VariationStudyResult,
    records_from_fault_study,
    records_from_sim_figure,
    run_variation_study,
    validate_variation_record,
    wrap_records,
)

__all__ = [
    "StudySpec",
    "VariationRecord",
    "VariationStudyResult",
    "run_variation_study",
    "records_from_sim_figure",
    "records_from_fault_study",
    "validate_variation_record",
    "wrap_records",
    "render_markdown",
    "baseline_record",
    "render_html",
    "render_status_page",
    "ConsoleServer",
    "serve_console",
]
