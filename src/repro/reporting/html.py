"""Self-contained single-file HTML rendering of a variation study.

One HTML document, no external assets: inline CSS, inline SVG charts,
no JavaScript at all — it renders identically from a file:// URL, an
artifact store, or the operator console's ``/report`` endpoint.

Charts are plain SVG built here: a scatter of estimated communication
cost ``C_c`` against measured peak throughput (the paper's central
correlation, Figure 6's axis pair) with the baseline highlighted, and a
per-variation delta table with regression rows tinted.  Coordinates are
rendered at fixed precision from deterministic inputs, so the file is
byte-identical across reruns of the same spec.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.reporting.render import baseline_record, record_deltas
from repro.reporting.study import VariationRecord, VariationStudyResult

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1b1f24; }
h1, h2 { border-bottom: 1px solid #d8dee4; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #d8dee4; padding: .35rem .6rem;
         text-align: right; }
th { background: #f6f8fa; }
td.name { text-align: left; font-family: ui-monospace, monospace; }
tr.regression td { background: #ffebe9; }
tr.baseline td { background: #ddf4ff; }
.meta { color: #57606a; }
.flag { color: #cf222e; font-weight: 600; }
svg { background: #fff; border: 1px solid #d8dee4; margin: 1rem 0; }
""".strip()

_PALETTE = ("#0969da", "#cf222e", "#1a7f37", "#9a6700", "#8250df",
            "#bf3989", "#57606a")


def _esc(text: object) -> str:
    return _html.escape(str(text), quote=True)


def _num(value: Optional[float], digits: int = 4) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100.0 * value:+.1f}%"


def _scale(values: Sequence[float],
           span: Tuple[float, float]) -> Tuple[float, float]:
    """``(offset, factor)`` mapping data range -> pixel range."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    p0, p1 = span
    factor = (p1 - p0) / (hi - lo)
    return lo, factor


def scatter_svg(records: Sequence[VariationRecord], baseline_name: str,
                *, width: int = 640, height: int = 400) -> str:
    """The C_c-vs-peak-throughput scatter as one inline SVG element."""
    points = [(r.c_c, r.peak_throughput, r) for r in records
              if r.peak_throughput is not None]
    if not points:
        return "<p class=\"meta\">(no measured cells to plot)</p>"
    margin = 55
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, xf = _scale(xs, (margin, width - 20))
    y0, yf = _scale(ys, (height - margin, 20))   # y grows downward

    colors: Dict[str, str] = {}
    for _, _, r in points:
        if r.mapping not in colors:
            colors[r.mapping] = _PALETTE[len(colors) % len(_PALETTE)]

    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        'xmlns="http://www.w3.org/2000/svg">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - 20}" '
        f'y2="{height - margin}" stroke="#57606a"/>',
        f'<line x1="{margin}" y1="20" x2="{margin}" '
        f'y2="{height - margin}" stroke="#57606a"/>',
        f'<text x="{(margin + width - 20) // 2}" y="{height - 12}" '
        'text-anchor="middle" font-size="12">estimated C_c</text>',
        f'<text x="14" y="{(20 + height - margin) // 2}" font-size="12" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 14 {(20 + height - margin) // 2})">'
        'measured peak throughput (flits/switch/cycle)</text>',
    ]
    for tick in range(5):
        frac = tick / 4.0
        xv = min(xs) + frac * (max(xs) - min(xs))
        yv = min(ys) + frac * (max(ys) - min(ys))
        px = margin + (xv - x0) * xf
        py = (height - margin) + (yv - y0) * yf
        parts.append(
            f'<text x="{px:.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-size="10">{xv:.3f}</text>')
        parts.append(
            f'<text x="{margin - 6}" y="{py:.1f}" text-anchor="end" '
            f'font-size="10" dominant-baseline="middle">{yv:.3f}</text>')
    for x, y, r in points:
        px = margin + (x - x0) * xf
        py = (height - margin) + (y - y0) * yf
        color = colors[r.mapping]
        is_base = r.name == baseline_name
        radius = 7 if is_base else 5
        stroke = ' stroke="#1b1f24" stroke-width="2"' if is_base else ""
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{radius}" '
            f'fill="{color}" fill-opacity="0.8"{stroke}>'
            f'<title>{_esc(r.name)}: C_c={r.c_c:.4f}, '
            f'peak={r.peak_throughput:.4f}</title></circle>')
        parts.append(
            f'<text x="{px + 8:.1f}" y="{py - 6:.1f}" font-size="10">'
            f'{_esc(r.name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_html(result: VariationStudyResult) -> str:
    """The full study report as one self-contained HTML document."""
    spec = result.spec
    base = baseline_record(result)
    rows: List[str] = []
    regressions = 0
    for r in result.records:
        d_thr, d_lat, regressed = record_deltas(r, base)
        regressions += regressed
        cls = ("baseline" if r.name == base.name
               else "regression" if regressed else "")
        flag = '<span class="flag">REG</span>' if regressed else ""
        rows.append(
            f'<tr class="{cls}"><td class="name">{_esc(r.name)}</td>'
            f"<td>{_num(r.c_c)}</td><td>{_num(r.f_g)}</td>"
            f"<td>{_num(r.peak_throughput)}</td>"
            f"<td>{_num(r.top_latency, 2)}</td>"
            f"<td>{_num(r.repair_gap)}</td>"
            f"<td>{_pct(d_thr)}</td><td>{_pct(d_lat)}</td>"
            f"<td>{flag}</td></tr>")
    ladder_rows: List[str] = []
    for r in result.records:
        if not r.rates:
            continue
        thr = "".join(
            f"<td>{_num(e['mean'], 3)}</td>" for e in r.throughput)
        lat = "".join(
            f"<td>{_num(e['mean'], 1)}</td>" for e in r.latency)
        ladder_rows.append(
            f'<tr><td class="name">{_esc(r.name)}</td>'
            f"<td>accepted</td>{thr}</tr>")
        ladder_rows.append(
            f'<tr><td class="name">{_esc(r.name)}</td>'
            f"<td>latency</td>{lat}</tr>")
    rate_heads = "".join(f"<th>S{i + 1}={rate:.4f}</th>"
                         for i, rate in enumerate(result.rates))
    verdict = (
        f"{regressions} variation(s) regressed vs "
        f"<code>{_esc(base.name)}</code>."
        if regressions else
        f"No variation regressed vs <code>{_esc(base.name)}</code>.")
    grid = (f"{1 + spec.num_random} mappings &times; "
            f"{len(spec.fault_sets)} fault sets\n&times; "
            f"{len(spec.engines)} engines = {spec.cells} cells &middot;\n"
            f"{len(result.rates)} load rates")
    if result.network is not None:
        meta = f"network <code>{_esc(result.network)}</code> &middot;\n{grid}"
    else:
        meta = (f"topology <code>{_esc(spec.topology)}</code>\n"
                f"({spec.switches} switches, topology seed "
                f"{spec.topology_seed}) &middot;\n{grid} &times; "
                f"{spec.replications} replications\n"
                f"&middot; study seed {spec.seed}")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Variation study: {_esc(spec.name)}</title>
<style>
{_CSS}
</style>
</head>
<body>
<h1>Variation study: {_esc(spec.name)}</h1>
<p class="meta">{meta}</p>
<h2>Estimated cost vs measured throughput</h2>
{scatter_svg(result.records, base.name)}
<h2>Cells</h2>
<table>
<tr><th>variation</th><th>C_c</th><th>F_G</th><th>peak thr</th>
<th>top-rate lat</th><th>repair gap</th><th>&Delta;thr</th>
<th>&Delta;lat</th><th></th></tr>
{"".join(rows)}
</table>
<h2>Measured ladder (means)</h2>
<table>
<tr><th>variation</th><th>metric</th>{rate_heads}</tr>
{"".join(ladder_rows)}
</table>
<h2>Verdict</h2>
<p>{verdict}</p>
</body>
</html>
"""


def render_status_page(status: Dict[str, object]) -> str:
    """A live daemon's ``status`` dict as a small self-contained page.

    Served by the operator console's ``/report`` endpoint when the
    console fronts a running scheduling daemon rather than a study.
    """
    def section(title: str, mapping: Dict[str, object]) -> str:
        rows = "".join(
            f'<tr><td class="name">{_esc(k)}</td><td>{_esc(v)}</td></tr>'
            for k, v in mapping.items())
        return f"<h2>{_esc(title)}</h2><table>{rows}</table>"

    scalar = {k: v for k, v in status.items()
              if not isinstance(v, (dict, list))}
    body = [section("daemon", scalar)]
    for key, value in status.items():
        if isinstance(value, dict):
            body.append(section(key, value))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro scheduler console</title>
<style>
{_CSS}
</style>
</head>
<body>
<h1>repro scheduler console</h1>
<p class="meta">endpoints: <a href="/healthz">/healthz</a> &middot;
<a href="/metrics">/metrics</a> &middot; <a href="/status">/status</a>
&middot; <a href="/report">/report</a></p>
{"".join(body)}
</body>
</html>
"""


__all__ = ["scatter_svg", "render_html", "render_status_page"]
