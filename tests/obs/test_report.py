"""Report rendering: parse a real trace and check every section appears."""

import json
import math

import pytest

from repro.obs.manifest import collect_manifest
from repro.obs.metrics import inc
from repro.obs.report import (
    REPORT_JSON_SCHEMA,
    load_trace,
    render_report,
    report_file,
    report_json,
)
from repro.obs.run import trace_run
from repro.obs.trace import event, span
from repro.parallel import WorkerPool, parallel_map


def _write_trace(path):
    manifest = collect_manifest("test", ["--x"], seed=7, engine="fast")
    with trace_run(path, manifest=manifest):
        with span("phase.outer", part="a"):
            with span("phase.inner"):
                pass
        inc("cache.tables.hits", 3)
        inc("cache.tables.misses", 1)
        inc("engine.fast.runs", 2)
        inc("engine.fast.arb_requests", 10)
        inc("engine.fast.arb_conflicts", 4)
        for i in range(2):
            event("search.restart", index=i, method="tabu", best_value=0.5 - i * 0.1,
                  iterations=5, evaluations=100, accepted=3, uphill=2,
                  tabu_masked=1, trace=[1.0, 0.8, 0.5 - i * 0.1])


def _square(x):
    return x * x


class TestLoadTrace:
    def test_partitions_records_by_type(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        data = load_trace(path)
        assert data.manifest is not None and data.manifest.seed == 7
        assert {sp.name for sp in data.spans} == {"phase.outer", "phase.inner"}
        assert len(data.events_named("search.restart")) == 2
        assert data.counters["cache.tables.hits"] == 3.0

    def test_unknown_record_types_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        with open(path, "a") as fh:
            fh.write('{"type": "future-thing", "x": 1}\n')
        assert load_trace(path).counters  # still parses


class TestRenderReport:
    def test_all_sections_render(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        text = report_file(path)
        assert "run manifest" in text
        assert "seed=7" in text and "engine=fast" in text
        assert "per-phase time breakdown" in text
        assert "phase.outer" in text and "phase.inner" in text
        assert "slowest spans" in text
        assert "distance/routing-table caches" in text
        assert "0.75" in text  # tables hit rate 3/(3+1)
        assert "simulation engines" in text
        assert "search convergence" in text
        assert "best F_G so far" in text  # the trajectory plot
        assert "execution-layer recoveries" not in text  # no fallback ran

    def test_self_time_subtracts_children(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        data = load_trace(path)
        outer = next(sp for sp in data.spans if sp.name == "phase.outer")
        inner = next(sp for sp in data.spans if sp.name == "phase.inner")
        assert inner.parent_id == outer.span_id
        assert outer.duration >= inner.duration

    def test_empty_sections_degrade_gracefully(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with trace_run(path):
            pass
        text = report_file(path)
        assert "(no spans recorded)" in text
        assert "search convergence" not in text
        assert "caches" not in text

    def test_nan_values_render_without_crashing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace_run(path):
            with span("work"):
                event("sweep.point", index=1, rate=0.1,
                      accepted=0.0, avg_latency=math.nan, saturated=False)
        assert render_report(load_trace(path))


class TestEdgeCases:
    """Damaged or partial traces must still load and render."""

    def test_no_manifest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            fh.write('{"type": "span", "name": "work", "t_start": 0.0, '
                     '"t_end": 1.0, "duration": 1.0, "span_id": 1}\n')
        data = load_trace(path)
        assert data.manifest is None
        text = render_report(data)
        assert "run manifest" not in text and "work" in text
        assert report_json(data)["manifest"] is None

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        with open(path, "a") as fh:
            fh.write('{"type": "event", "name": "torn", "t": 1.')  # no \n
        data = load_trace(path)
        assert data.corrupt_lines == 1
        assert data.manifest is not None  # everything before survived
        text = render_report(data)
        assert "1 corrupt line(s) skipped" in text
        assert report_json(data)["corrupt_lines"] == 1

    def test_missing_parent_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            fh.write('{"type": "span", "name": "orphan", "t_start": 0.0, '
                     '"t_end": 2.0, "duration": 2.0, "span_id": 5, '
                     '"parent_id": 999}\n')
        data = load_trace(path)
        text = render_report(data)
        assert "orphan" in text
        phases = report_json(data)["phases"]
        assert phases[0]["phase"] == "orphan"
        assert phases[0]["total_s"] == 2.0

    def test_record_with_missing_keys_counted_corrupt(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            fh.write('{"type": "span", "t_start": 0.0}\n')  # no name
            fh.write('[1, 2, 3]\n')  # not even a record
        data = load_trace(path)
        assert data.corrupt_lines == 2
        assert render_report(data)


class TestReportJson:
    def test_schema_and_sections(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        payload = report_json(load_trace(path))
        assert payload["schema"] == REPORT_JSON_SCHEMA
        assert payload["manifest"]["seed"] == 7
        assert {row["phase"] for row in payload["phases"]} == {
            "phase.outer", "phase.inner"}
        assert payload["caches"]["tables"]["hit_rate"] == 0.75
        assert payload["engines"]["fast"]["conflict_rate"] == 0.4
        assert len(payload["search_restarts"]) == 2
        assert payload["recoveries"] == {"pool_fallbacks": 0}
        assert payload["corrupt_lines"] == 0

    def test_strictly_valid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace_run(path):
            with span("work"):
                event("sweep.point", avg_latency=math.nan)
        payload = report_json(load_trace(path))
        text = json.dumps(payload, allow_nan=False)  # raises on NaN/Inf
        assert json.loads(text) == payload

    def test_slowest_limit_respected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        payload = report_json(load_trace(path), slowest=1)
        assert len(payload["slowest_spans"]) == 1


class TestPoolFallbacks:
    """A pool that cannot start shows up as a recovery in both reports."""

    def test_fallback_spans_are_counted(self, tmp_path, monkeypatch):
        def no_pool(self):
            raise OSError("no fork here")

        monkeypatch.setattr(WorkerPool, "executor", no_pool)
        path = tmp_path / "t.jsonl"
        with trace_run(path):
            with pytest.warns(RuntimeWarning, match="process pool"):
                assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
            # The other fallback mode counts; clean runs do not.
            with span("parallel.map", mode="pool-then-serial"):
                pass
            with span("parallel.map", mode="pool"):
                pass
            with span("parallel.map", mode="serial"):
                pass
        data = load_trace(path)
        modes = [sp.attrs.get("mode") for sp in data.spans
                 if sp.name == "parallel.map"]
        assert modes[0] == "serial-fallback"
        assert report_json(data)["recoveries"] == {"pool_fallbacks": 2}
        assert "2 pool fallback(s) to serial" in render_report(data)


class TestReportCli:
    """``repro report --json`` end to end, with a schema check."""

    def test_json_flag_emits_the_machine_readable_report(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        _write_trace(path)
        assert main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == REPORT_JSON_SCHEMA
        required = {"schema", "manifest", "phases", "slowest_spans",
                    "caches", "engines", "search_restarts", "recoveries",
                    "metrics", "corrupt_lines"}
        assert required <= set(payload)
        assert payload["manifest"]["command"] == "test"

    def test_text_report_remains_the_default(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        _write_trace(path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "{" not in out.splitlines()[0]

    def test_missing_file_exits_cleanly(self, tmp_path):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit, match="no trace file"):
            main(["report", str(tmp_path / "missing.jsonl")])
