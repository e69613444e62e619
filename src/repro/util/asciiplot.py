"""Terminal line/scatter plots for the figure renderings.

The paper's Figures 1, 3, 5 and 6 are plots; the benchmark harness renders
them as monospace charts so a full reproduction run needs no plotting
stack and the archived outputs stay diffable.  Markers are assigned per
series; overlapping points show the later series' marker.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Series = Tuple[Sequence[float], Sequence[float]]

_MARKERS = "ox+*#@%&"


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1000 or abs(x) < 0.01:
        return f"{x:.1e}"
    return f"{x:.3g}"


def line_plot(
    series: Mapping[str, Series],
    *,
    width: int = 64,
    height: int = 18,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    y_log: bool = False,
) -> str:
    """Render named (xs, ys) series as an ASCII scatter plot.

    Parameters
    ----------
    series:
        Mapping of series name to ``(xs, ys)``.  NaN points are skipped.
    width, height:
        Plot-area size in characters (axes and legend are extra).
    y_log:
        Plot ``log10(y)`` (ticks still show raw values) — useful for the
        latency curves whose saturation blow-up dwarfs the low-load region.
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 8 or height < 4:
        raise ValueError(f"plot area too small: {width}x{height}")

    def ty(v: float) -> float:
        return math.log10(v) if y_log else v

    points: Dict[str, List[Tuple[float, float]]] = {}
    for name, (xs, ys) in series.items():
        xs = list(xs)
        ys = list(ys)
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: x/y length mismatch")
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if not (math.isnan(float(x)) or math.isnan(float(y)))
            and (not y_log or y > 0)
        ]
        points[name] = pts
    all_pts = [p for pts in points.values() for p in pts]
    if not all_pts:
        raise ValueError("no finite data points to plot")

    x_lo = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    y_lo = min(ty(p[1]) for p in all_pts)
    y_hi = max(ty(p[1]) for p in all_pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, pts) in enumerate(points.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in pts:
            cx = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
            cy = round((ty(y) - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - cy][cx] = marker

    # y tick labels on 4 rows (top, 1/3, 2/3, bottom).
    label_rows = {0, height // 3, 2 * height // 3, height - 1}
    y_ticks = {}
    for r in label_rows:
        frac = (height - 1 - r) / (height - 1)
        v = y_lo + frac * (y_hi - y_lo)
        y_ticks[r] = _fmt(10 ** v if y_log else v)
    label_w = max(len(s) for s in y_ticks.values())

    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(f"{y_label}{' (log scale)' if y_log else ''}")
    for r in range(height):
        label = y_ticks.get(r, "").rjust(label_w)
        lines.append(f"{label} |" + "".join(grid[r]))
    x_axis = " " * label_w + " +" + "-" * width
    lines.append(x_axis)
    left = _fmt(x_lo)
    right = _fmt(x_hi)
    gap = width - len(left) - len(right)
    lines.append(" " * (label_w + 2) + left + " " * max(1, gap) + right)
    if x_label:
        pad = max(0, (label_w + 2 + width - len(x_label)) // 2)
        lines.append(" " * pad + x_label)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}"
        for i, name in enumerate(points)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def bar_chart(
    values: Mapping[str, float],
    *,
    width: int = 40,
    title: str = "",
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Horizontal ASCII bar chart (used for the Figure 6 correlations)."""
    if not values:
        raise ValueError("need at least one value")
    finite = {k: v for k, v in values.items() if not math.isnan(v)}
    v_lo = lo if lo is not None else min(0.0, *finite.values()) if finite else 0.0
    v_hi = hi if hi is not None else max(finite.values(), default=1.0)
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0
    name_w = max(len(k) for k in values)
    lines = [title] if title else []
    for name, v in values.items():
        if math.isnan(v):
            lines.append(f"{name.rjust(name_w)} | (undefined)")
            continue
        filled = round((v - v_lo) / (v_hi - v_lo) * width)
        filled = min(max(filled, 0), width)
        lines.append(
            f"{name.rjust(name_w)} |{'#' * filled}{' ' * (width - filled)}| "
            f"{_fmt(v)}"
        )
    return "\n".join(lines)


__all__ = ["line_plot", "bar_chart"]
