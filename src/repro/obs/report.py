"""``repro report`` — summarize a JSONL trace file.

Reads a trace produced by ``repro --trace PATH ...`` (or any
:func:`repro.obs.run.trace_run` stream) and renders, as plain text:

- the run manifest (command, seed, engine, workers, versions);
- a per-phase time breakdown — total and *self* time per span name,
  where self time subtracts child spans so nested phases don't double
  count;
- the slowest individual spans;
- cache hit/miss rates and engine counters from the final metrics
  snapshot;
- the search convergence table and an ASCII trajectory plot built from
  the per-restart ``search.restart`` events;
- how many ``parallel.map`` spans fell back from the process pool to the
  serial path.

Every section degrades gracefully: a trace with no search events simply
has no convergence section, and so on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.manifest import RunManifest
from repro.obs.trace import TraceEvent
from repro.util.asciiplot import line_plot
from repro.util.reporting import Table

PathLike = Union[str, Path]


@dataclass
class TraceData:
    """A parsed trace file: manifest, spans, events, metrics snapshots.

    ``corrupt_lines`` counts lines that failed to parse (typically one
    torn final line from a run killed mid-write); the report renders the
    surviving records and says how many lines were dropped.
    """

    manifest: Optional[RunManifest] = None
    spans: List[TraceEvent] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    corrupt_lines: int = 0

    def events_named(self, name: str) -> List[TraceEvent]:
        """All point events with the given name, in file order."""
        return [e for e in self.events if e.name == name]

    @property
    def counters(self) -> Dict[str, float]:
        """The counters section of the last metrics snapshot (may be empty)."""
        return self.metrics.get("counters", {})


def load_trace(path: PathLike) -> TraceData:
    """Parse a JSONL trace file into a :class:`TraceData`.

    Unknown record types are skipped (forward compatibility); when a file
    carries several metrics snapshots the last one wins.
    """
    data = TraceData()
    with open(Path(path)) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            # A run killed mid-write leaves one torn line (usually the
            # last); drop it, count it, and keep everything that did land.
            try:
                record = json.loads(line)
                rtype = record.get("type")
                if rtype == "manifest":
                    data.manifest = RunManifest.from_record(record)
                elif rtype == "span":
                    data.spans.append(TraceEvent.from_record(record))
                elif rtype == "event":
                    data.events.append(TraceEvent.from_record(record))
                elif rtype == "metrics":
                    data.metrics = record.get("metrics", {})
            except (ValueError, KeyError, TypeError, AttributeError):
                data.corrupt_lines += 1
    return data


def _phase_stats(spans: List[TraceEvent]) -> List[Dict[str, Any]]:
    """Per-span-name totals with self time (children subtracted).

    A span whose ``parent_id`` references a span that never closed (or
    whose record was torn away) simply contributes no child time to
    anyone — orphans are summarized like roots, never an error.
    """
    child_time: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None and sp.duration is not None:
            child_time[sp.parent_id] = (child_time.get(sp.parent_id, 0.0)
                                        + sp.duration)
    totals: Dict[str, List[float]] = {}  # name -> [count, total, self]
    for sp in spans:
        dur = sp.duration or 0.0
        self_time = max(0.0, dur - child_time.get(sp.span_id or -1, 0.0))
        row = totals.setdefault(sp.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += self_time
    traced = sum(sp.duration or 0.0 for sp in spans if sp.parent_id is None)
    out = []
    for name, (count, total, self_time) in sorted(
            totals.items(), key=lambda kv: -kv[1][2]):
        share = 100.0 * self_time / traced if traced > 0 else math.nan
        out.append({"phase": name, "count": count, "total_s": total,
                    "self_s": self_time, "share_pct": share})
    return out


def _phase_breakdown(spans: List[TraceEvent]) -> Table:
    """Per-span-name totals with self time (children subtracted)."""
    t = Table(["phase", "count", "total s", "self s", "% of run"],
              title="per-phase time breakdown")
    for row in _phase_stats(spans):
        t.add_row([row["phase"], row["count"], row["total_s"],
                   row["self_s"], row["share_pct"]], digits=3)
    return t


def _slowest_spans(spans: List[TraceEvent], limit: int) -> Table:
    """The ``limit`` longest individual spans with a context hint."""
    t = Table(["span", "duration s", "context"],
              title=f"slowest spans (top {limit})")
    ranked = sorted(spans, key=lambda sp: -(sp.duration or 0.0))[:limit]
    for sp in ranked:
        hint = ", ".join(
            f"{k}={v}" for k, v in list(sp.attrs.items())[:3]
            if not isinstance(v, (list, dict))
        )
        t.add_row([sp.name, sp.duration or 0.0, hint or "-"], digits=4)
    return t


def _grouped_counters(counters: Dict[str, float],
                      prefix: str) -> Dict[str, Dict[str, float]]:
    """``{group: {kind: value}}`` for counters named ``<prefix>.<group>.<kind>``."""
    groups: Dict[str, Dict[str, float]] = {}
    for name, value in counters.items():
        if not name.startswith(prefix + "."):
            continue
        _, group, kind = name.split(".", 2)
        groups.setdefault(group, {})[kind] = value
    return groups


def _cache_stats(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Hit/miss/eviction rates per cache, from ``cache.*`` counters."""
    out: Dict[str, Dict[str, float]] = {}
    for cache_name, vals in sorted(_grouped_counters(counters,
                                                     "cache").items()):
        hits = vals.get("hits", 0.0)
        misses = vals.get("misses", 0.0)
        rate = hits / (hits + misses) if hits + misses else math.nan
        out[cache_name] = {"hits": hits, "misses": misses,
                           "evictions": vals.get("evictions", 0.0),
                           "hit_rate": rate}
    return out


def _cache_section(counters: Dict[str, float]) -> Optional[Table]:
    """Hit/miss/eviction rates per cache, from ``cache.*`` counters."""
    caches = _cache_stats(counters)
    if not caches:
        return None
    t = Table(["cache", "hits", "misses", "evictions", "hit rate"],
              title="distance/routing-table caches")
    for cache_name, vals in caches.items():
        t.add_row([cache_name, vals["hits"], vals["misses"],
                   vals["evictions"], vals["hit_rate"]], digits=3)
    return t


def _engine_stats(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Engine counter totals keyed by engine name, from ``engine.*``."""
    out: Dict[str, Dict[str, float]] = {}
    for engine_name, vals in sorted(_grouped_counters(counters,
                                                      "engine").items()):
        requests = vals.get("arb_requests", 0.0)
        conflicts = vals.get("arb_conflicts", 0.0)
        out[engine_name] = {
            "runs": vals.get("runs", 0.0),
            "cycles_executed": vals.get("cycles_executed", 0.0),
            "cycles_skipped": vals.get("cycles_skipped", 0.0),
            "arb_conflicts": conflicts,
            "conflict_rate": conflicts / requests if requests else math.nan,
        }
    return out


def _engine_section(counters: Dict[str, float]) -> Optional[Table]:
    """Engine counter totals, one row per engine, from ``engine.*``."""
    engines = _engine_stats(counters)
    if not engines:
        return None
    cols = ["engine", "runs", "cycles exec", "cycles skipped",
            "arb conflicts", "conflict rate"]
    t = Table(cols, title="simulation engines")
    for engine_name, vals in engines.items():
        t.add_row([
            engine_name, vals["runs"], vals["cycles_executed"],
            vals["cycles_skipped"], vals["arb_conflicts"],
            vals["conflict_rate"],
        ], digits=3)
    return t


def _search_section(data: TraceData, max_series: int = 6) -> List[str]:
    """Convergence table + trajectory plot from ``search.restart`` events."""
    restarts = data.events_named("search.restart")
    if not restarts:
        return []
    t = Table(["restart", "method", "iters", "evals", "best F_G",
               "accepted", "uphill", "tabu masked"],
              title="search convergence (per restart)")
    series: Dict[str, Any] = {}
    for ev in restarts:
        a = ev.attrs
        t.add_row([
            a.get("index", "-"), a.get("method", "-"),
            a.get("iterations", "-"), a.get("evaluations", "-"),
            a.get("best_value", math.nan), a.get("accepted", "-"),
            a.get("uphill", "-"), a.get("tabu_masked", "-"),
        ], digits=4)
        trace = a.get("trace") or []
        if trace and len(series) < max_series:
            # Best-so-far envelope: the convergence view of the raw F series.
            best, env = math.inf, []
            for v in trace:
                if v is not None and v < best:
                    best = v
                env.append(best)
            series[f"restart {a.get('index', len(series))}"] = (
                list(range(len(env))), env,
            )
    out = [t.render()]
    if series:
        out.append(line_plot(
            series, width=60, height=14,
            x_label="iteration", y_label="best F_G so far",
        ))
    return out


#: ``parallel.map`` span modes recording that the pool could not start or
#: died and the unfinished jobs re-ran serially.
_FALLBACK_MODES = ("serial-fallback", "pool-then-serial")


def _pool_fallbacks(spans: List[TraceEvent]) -> int:
    """How many ``parallel_map`` calls fell back to the serial path."""
    return sum(1 for sp in spans if sp.name == "parallel.map"
               and sp.attrs.get("mode") in _FALLBACK_MODES)


def render_report(data: TraceData, *, slowest: int = 10) -> str:
    """Render a full text report of one parsed trace."""
    sections: List[str] = []
    m = data.manifest
    if m is not None:
        sections.append(
            "run manifest:\n"
            f"  command:  {m.command} {' '.join(m.argv)}\n"
            f"  seed={m.seed}  engine={m.engine}  "
            f"workers={m.workers or 'default'} (resolved {m.workers_resolved})\n"
            f"  repro {m.package_version} / python {m.python_version} / "
            f"{m.platform}"
        )
    if data.spans:
        sections.append(_phase_breakdown(data.spans).render())
        sections.append(_slowest_spans(data.spans, slowest).render())
    else:
        sections.append("(no spans recorded)")
    for table in (_cache_section(data.counters),
                  _engine_section(data.counters)):
        if table is not None:
            sections.append(table.render())
    sections.extend(_search_section(data))
    fallbacks = _pool_fallbacks(data.spans)
    if fallbacks:
        sections.append(
            f"execution-layer recoveries: {fallbacks} pool fallback(s) "
            "to serial"
        )
    if data.corrupt_lines:
        sections.append(
            f"warning: {data.corrupt_lines} corrupt line(s) skipped "
            "(torn write?)"
        )
    return "\n\n".join(sections)


def _jsonsafe(value: Any) -> Any:
    """``value`` with NaN/Inf floats replaced by ``None``, recursively.

    ``repro report --json`` promises strictly valid JSON; Python's
    ``json`` would happily emit bare ``NaN`` tokens that other parsers
    reject.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    return value


REPORT_JSON_SCHEMA = "repro.report/2"


def report_json(data: TraceData, *, slowest: int = 10) -> Dict[str, Any]:
    """The trace report as one machine-readable, strictly-JSON-safe dict.

    Mirrors :func:`render_report` section by section; ``schema``
    identifies the payload shape so downstream consumers can reject
    versions they do not understand.
    """
    m = data.manifest
    ranked = sorted(data.spans, key=lambda sp: -(sp.duration or 0.0))[:slowest]
    restarts = [dict(ev.attrs) for ev in data.events_named("search.restart")]
    payload: Dict[str, Any] = {
        "schema": REPORT_JSON_SCHEMA,
        "manifest": m.to_record() if m is not None else None,
        "phases": _phase_stats(data.spans),
        "slowest_spans": [
            {"span": sp.name, "duration_s": sp.duration or 0.0,
             "attrs": dict(sp.attrs)}
            for sp in ranked
        ],
        "caches": _cache_stats(data.counters),
        "engines": _engine_stats(data.counters),
        "search_restarts": restarts,
        "recoveries": {"pool_fallbacks": _pool_fallbacks(data.spans)},
        "metrics": data.metrics,
        "corrupt_lines": data.corrupt_lines,
    }
    return _jsonsafe(payload)


__all__ = ["TraceData", "load_trace", "render_report", "report_json",
           "REPORT_JSON_SCHEMA"]
