"""HTML rendering: self-containment, scatter, regression highlighting."""

import re

from repro.reporting import render_html, render_status_page, wrap_records
from repro.reporting.html import scatter_svg

from .test_render import make_record


def assert_self_contained(page: str) -> None:
    """No external assets: inline CSS/SVG only, no JS, no CDN links."""
    assert page.startswith("<!DOCTYPE html>")
    assert "<script" not in page.lower()
    # the only absolute URL allowed is the SVG namespace declaration
    externals = [u for u in re.findall(r"https?://[^\"' >]+", page)
                 if u != "http://www.w3.org/2000/svg"]
    assert externals == []
    assert "<style>" in page


class TestRenderHtml:
    def test_real_study_page(self, tiny_study):
        page = render_html(tiny_study)
        assert_self_contained(page)
        assert "<svg" in page
        assert "OP/healthy/fast" in page
        assert "Variation study: tiny" in page

    def test_regression_rows_are_highlighted(self):
        records = [
            make_record("OP/healthy/fast", peak=1.0, top_latency=10.0),
            make_record("random-1/healthy/fast", peak=0.4, top_latency=40.0),
        ]
        page = render_html(wrap_records(records, network="n", baseline="OP"))
        assert 'class="regression"' in page
        assert 'class="baseline"' in page
        assert '<span class="flag">REG</span>' in page

    def test_rendering_is_deterministic(self, tiny_study):
        assert render_html(tiny_study) == render_html(tiny_study)

    def test_markup_is_escaped(self):
        records = [make_record("OP/healthy/fast")]
        records[0].name = "OP/<b>evil</b>/fast"
        page = render_html(wrap_records(records, network="n"))
        assert "<b>evil</b>" not in page
        assert "&lt;b&gt;evil&lt;/b&gt;" in page


class TestScatterSvg:
    def test_baseline_point_is_emphasized(self):
        records = [make_record("OP/healthy/fast", peak=1.0),
                   make_record("r/healthy/fast", peak=0.7)]
        svg = scatter_svg(records, "OP/healthy/fast")
        assert svg.count("<circle") == 2
        assert 'stroke-width="2"' in svg      # the baseline ring
        assert "<title>" in svg               # hover tooltips

    def test_no_measured_cells_falls_back(self):
        record = make_record("OP/healthy/fast")
        record.peak_throughput = None
        svg = scatter_svg([record], "OP/healthy/fast")
        assert "<svg" not in svg
        assert "no measured cells" in svg


class TestStatusPage:
    def test_sections_and_links(self):
        page = render_status_page({
            "requests_total": 7,
            "store": {"hits": 3, "misses": 4},
            "pool": {"workers": 2, "active": True},
        })
        assert_self_contained(page)
        for endpoint in ("/healthz", "/metrics", "/status", "/report"):
            assert f'href="{endpoint}"' in page
        assert "requests_total" in page and "hits" in page
