"""Markdown rendering: baseline selection, deltas, regression flags."""

import pytest

from repro.reporting import (
    VariationRecord,
    baseline_record,
    render_markdown,
    wrap_records,
)
from repro.reporting.render import REGRESSION_THRESHOLD, record_deltas


def make_record(name, *, peak=1.0, top_latency=10.0, repair_gap=None):
    """A hand-built two-rate record: 'mapping/fault/engine' from name."""
    mapping, fault_set, engine = name.split("/")
    def ci(v):
        return {"mean": v, "lo": v * 0.9, "hi": v * 1.1}
    return VariationRecord(
        name=name, mapping=mapping, fault_set=fault_set, engine=engine,
        c_c=2.0, f_g=1.5, d_g=1.2, rates=[0.01, 0.02],
        latency=[ci(top_latency * 0.5), ci(top_latency)],
        throughput=[ci(peak * 0.5), ci(peak)],
        peak_throughput=peak, repair_gap=repair_gap,
        counters={}, replications=2,
    )


@pytest.fixture()
def synthetic_result():
    records = [
        make_record("OP/healthy/fast", peak=1.0, top_latency=10.0),
        make_record("random-1/healthy/fast", peak=0.5, top_latency=30.0),
        make_record("OP/link-0/fast", peak=0.98, top_latency=10.2,
                    repair_gap=0.01),
    ]
    return wrap_records(records, network="synthetic-net", name="synthetic",
                        baseline="OP")


class TestBaselineRecord:
    def test_prefers_the_healthy_baseline_cell(self, synthetic_result):
        assert baseline_record(synthetic_result).name == "OP/healthy/fast"

    def test_falls_back_to_the_first_record(self):
        records = [make_record("a/healthy/fast"), make_record("b/x/fast")]
        result = wrap_records(records, network="n", baseline="missing")
        assert baseline_record(result).name == "a/healthy/fast"


class TestRecordDeltas:
    def test_throughput_drop_regresses(self):
        base = make_record("OP/healthy/fast", peak=1.0)
        worse = make_record("r/healthy/fast",
                            peak=1.0 - 2 * REGRESSION_THRESHOLD)
        d_thr, _, regressed = record_deltas(worse, base)
        assert regressed and d_thr < 0

    def test_latency_rise_regresses(self):
        base = make_record("OP/healthy/fast", top_latency=10.0)
        worse = make_record(
            "r/healthy/fast",
            top_latency=10.0 * (1 + 2 * REGRESSION_THRESHOLD))
        _, d_lat, regressed = record_deltas(worse, base)
        assert regressed and d_lat > 0

    def test_within_threshold_is_clean(self):
        base = make_record("OP/healthy/fast")
        near = make_record("r/healthy/fast", peak=0.99, top_latency=10.1)
        _, _, regressed = record_deltas(near, base)
        assert not regressed

    def test_undefined_sides_give_none(self):
        base = make_record("OP/healthy/fast")
        empty = make_record("r/healthy/fast")
        empty.peak_throughput = None
        empty.latency = []
        empty.rates = []
        empty.throughput = []
        d_thr, d_lat, regressed = record_deltas(empty, base)
        assert d_thr is None and d_lat is None and not regressed


class TestRenderMarkdown:
    def test_sections_and_flags(self, synthetic_result):
        text = render_markdown(synthetic_result)
        assert text.startswith("# Variation study: synthetic")
        assert "## Cells" in text and "## Measured ladder" in text
        assert "`OP/healthy/fast` (baseline)" in text
        # random-1 halves the throughput and triples the latency
        assert "**REG**" in text
        assert "1 variation(s) regressed" in text
        assert "Best peak throughput: `OP/healthy/fast`" in text

    def test_clean_study_has_no_flags(self):
        records = [make_record("OP/healthy/fast"),
                   make_record("random-1/healthy/fast")]
        text = render_markdown(wrap_records(records, network="n",
                                             baseline="OP"))
        assert "**REG**" not in text
        assert "No variation regressed" in text

    def test_rendering_is_deterministic(self, synthetic_result):
        assert render_markdown(synthetic_result) == \
            render_markdown(synthetic_result)

    def test_adapter_header_states_only_what_it_has(self, synthetic_result):
        header = render_markdown(synthetic_result).split("## Cells")[0]
        assert "- network: `synthetic-net`" in header
        assert "seed" not in header and "replications" not in header
        assert "topology" not in header

    def test_real_study_renders(self, tiny_study):
        text = render_markdown(tiny_study)
        assert "`OP/healthy/fast`" in text
        assert text.count("|") > 40    # both tables populated
