"""Comparative markdown rendering of a variation study.

The comparison the paper makes visually — which schedule variation
saturates higher, at what estimated cost ``C_c`` — as one markdown
document: a summary table of every cell, per-variation deltas against a
named baseline cell, and explicit regression highlighting (a variation
whose throughput fell, or latency rose, beyond a threshold relative to
the baseline is flagged ``REG``).

All formatting is fixed-precision and the input records carry no
wall-clock fields, so the document is byte-identical across reruns of
the same spec.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.reporting.study import (
    HEALTHY,
    VariationRecord,
    VariationStudyResult,
)

REGRESSION_THRESHOLD = 0.05     # 5 % vs baseline flags a regression


def _fmt(value: Optional[float], digits: int = 4) -> str:
    """A number for a table cell; ``-`` for undefined."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _fmt_ci(entry: Optional[dict], digits: int = 2) -> str:
    """``mean [lo, hi]`` for one CI entry; ``-`` for undefined."""
    if not entry or entry.get("mean") is None:
        return "-"
    return (f"{entry['mean']:.{digits}f} "
            f"[{entry['lo']:.{digits}f}, {entry['hi']:.{digits}f}]")


def _fmt_pct(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{100.0 * value:+.1f}%"


def baseline_record(result: VariationStudyResult) -> VariationRecord:
    """The cell deltas are measured against.

    The spec's baseline mapping on the healthy network (falling back to
    the first fault set) under the first engine; failing that, the
    first record.
    """
    spec = result.spec
    fault_sets = [HEALTHY] + [f for f in spec.fault_sets if f != HEALTHY]
    for fault_set in fault_sets:
        for engine in spec.engines:
            name = f"{spec.baseline}/{fault_set}/{engine}"
            for r in result.records:
                if r.name == name:
                    return r
    return result.records[0]


def _rel_delta(value: Optional[float],
               base: Optional[float]) -> Optional[float]:
    """``(value - base) / base`` when both sides are usable."""
    if value is None or base is None or base == 0:
        return None
    return (value - base) / base


def record_deltas(
    record: VariationRecord, base: VariationRecord,
) -> Tuple[Optional[float], Optional[float], bool]:
    """``(throughput delta, latency delta, regressed)`` vs the baseline.

    Throughput compares peak accepted traffic (higher is better);
    latency compares the mean at the top load rate (lower is better).
    A cell regresses when either moves against the baseline by more
    than :data:`REGRESSION_THRESHOLD`.
    """
    d_thr = _rel_delta(record.peak_throughput, base.peak_throughput)
    d_lat = _rel_delta(record.top_latency, base.top_latency)
    regressed = ((d_thr is not None and d_thr < -REGRESSION_THRESHOLD)
                 or (d_lat is not None and d_lat > REGRESSION_THRESHOLD))
    return d_thr, d_lat, regressed


def render_markdown(result: VariationStudyResult) -> str:
    """The full comparative report as GitHub-flavoured markdown."""
    spec = result.spec
    base = baseline_record(result)
    grid = (f"- grid: {1 + spec.num_random} mappings x "
            f"{len(spec.fault_sets)} fault sets x {len(spec.engines)} "
            f"engines = {spec.cells} cells")
    if result.network is not None:
        header = [f"- network: `{result.network}`", grid,
                  f"- measurement: {len(result.rates)} load rates"]
    else:
        header = [
            f"- topology: `{spec.topology}` ({spec.switches} switches, "
            f"seed {spec.topology_seed})",
            grid,
            f"- measurement: {len(result.rates)} load rates x "
            f"{spec.replications} replications "
            f"({spec.warmup_cycles}+{spec.measure_cycles} cycles), seed "
            f"{spec.seed}",
        ]
    lines: List[str] = [
        f"# Variation study: {spec.name}",
        "",
        *header,
        f"- baseline: `{base.name}`",
        "",
        "## Cells",
        "",
        "| variation | C_c | F_G | peak thr | top-rate latency | "
        "repair gap | Δthr | Δlat | |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    regressions = []
    for r in result.records:
        d_thr, d_lat, regressed = record_deltas(r, base)
        if regressed:
            regressions.append(r.name)
        flag = "**REG**" if regressed else ""
        mark = " (baseline)" if r.name == base.name else ""
        lines.append(
            f"| `{r.name}`{mark} | {_fmt(r.c_c)} | {_fmt(r.f_g)} | "
            f"{_fmt(r.peak_throughput)} | "
            f"{_fmt_ci(r.latency[-1] if r.latency else None)} | "
            f"{_fmt(r.repair_gap)} | {_fmt_pct(d_thr)} | "
            f"{_fmt_pct(d_lat)} | {flag} |"
        )
    lines += ["", "## Measured ladder", ""]
    rate_heads = " | ".join(f"S{i + 1}={rate:.4f}"
                            for i, rate in enumerate(result.rates))
    lines.append(f"| variation | metric | {rate_heads} |")
    lines.append("|---|---|" + "---|" * len(result.rates))
    for r in result.records:
        if not r.rates:
            continue
        thr = " | ".join(_fmt_ci(e, 3) for e in r.throughput)
        lat = " | ".join(_fmt_ci(e, 1) for e in r.latency)
        lines.append(f"| `{r.name}` | accepted | {thr} |")
        lines.append(f"| `{r.name}` | latency | {lat} |")
    lines += ["", "## Verdict", ""]
    if regressions:
        lines.append(
            f"{len(regressions)} variation(s) regressed vs `{base.name}` "
            f"(>{100 * REGRESSION_THRESHOLD:.0f}% worse): "
            + ", ".join(f"`{n}`" for n in regressions))
    else:
        lines.append(
            f"No variation regressed vs `{base.name}` by more than "
            f"{100 * REGRESSION_THRESHOLD:.0f}%.")
    ranked = sorted(
        (r for r in result.records if r.peak_throughput is not None),
        key=lambda r: -r.peak_throughput)
    if ranked:
        lines.append(
            f"Best peak throughput: `{ranked[0].name}` at "
            f"{ranked[0].peak_throughput:.4f} flits/switch/cycle.")
    return "\n".join(lines) + "\n"


__all__ = ["REGRESSION_THRESHOLD", "baseline_record", "record_deltas",
           "render_markdown"]
