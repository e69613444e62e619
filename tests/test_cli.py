"""Tests for the command-line interface."""

import argparse
import json
import re

import pytest

from repro.cli import main
from repro.core.mapping import Partition
from repro.obs.schema import validate_trace_file
from repro.topology.graph import Topology


class TestTopologyCommand:
    def test_describe(self, capsys):
        assert main(["topology", "--switches", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "switches:        12" in out
        assert "diameter:" in out

    def test_save_and_load(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        main(["topology", "--switches", "12", "--seed", "1",
              "--save", str(path)])
        loaded = Topology.from_dict(json.loads(path.read_text()))
        assert loaded.num_switches == 12

    def test_four_rings(self, capsys):
        main(["topology", "--kind", "four-rings"])
        assert "switches:        24" in capsys.readouterr().out

    def test_mesh(self, capsys):
        main(["topology", "--kind", "mesh", "--switches", "16"])
        assert "switches:        16" in capsys.readouterr().out

    def test_load_wrong_payload(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(Partition([0, 0]).to_dict()))
        with pytest.raises(SystemExit, match="does not contain a topology"):
            main(["topology", "--load", str(path)])

    def test_load_missing_file_names_it(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match=f"^{re.escape(str(path))}: cannot read"):
            main(["topology", "--load", str(path)])


class TestScheduleCommand:
    def test_schedule_prints_scores(self, capsys):
        assert main(["schedule", "--switches", "12", "--seed", "1",
                     "--clusters", "3", "--randoms", "2"]) == 0
        out = capsys.readouterr().out
        assert "F_G=" in out and "C_c=" in out
        assert "random-0" in out

    def test_schedule_saves_partition(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["schedule", "--switches", "12", "--seed", "1",
              "--clusters", "3", "--save", str(path)])
        loaded = Partition.from_dict(json.loads(path.read_text()))
        assert loaded.sizes() == [4, 4, 4]

    def test_uneven_clusters_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--switches", "16", "--clusters", "3"])


class TestSimulateCommand:
    def test_simulate_prints_sweep(self, capsys):
        assert main([
            "simulate", "--switches", "8", "--seed", "1", "--clusters", "2",
            "--randoms", "1", "--points", "2", "--measure", "300",
            "--warmup", "100", "--max-rate", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduled" in out and "S1 acc" in out and "S2 lat" in out

    def test_batch_engine_is_an_invalid_choice(self, capsys):
        """The deleted lockstep engine is refused by argparse."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--switches", "8", "--engine", "batch"])
        assert exc.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err

    def test_engine_vector_flag_runs_the_sweep(self, capsys):
        """--engine vector completes the same sweep; numbers may differ
        from the bit-identical lineage (statistical contract, DESIGN.md
        §6g) but the output shape must not."""
        argv = [
            "simulate", "--switches", "8", "--seed", "1", "--clusters", "2",
            "--randoms", "0", "--points", "3", "--measure", "300",
            "--warmup", "100", "--max-rate", "0.01",
        ]
        assert main(argv + ["--engine", "vector"]) == 0
        first = capsys.readouterr().out
        assert "S1 acc" in first and "S3 acc" in first
        # Deterministic per seed: the same invocation reprints itself.
        assert main(argv + ["--engine", "vector"]) == 0
        assert capsys.readouterr().out == first


class TestFiguresCommand:
    def test_fig2_and_fig4(self, capsys):
        assert main(["figures", "--fig", "2", "--fig", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 4" in out
        assert "Figure 3" not in out

    def test_fig1(self, capsys):
        assert main(["figures", "--fig", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestMetricsCommand:
    def test_metrics_output(self, capsys):
        assert main(["metrics", "--switches", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "bisection width:" in out
        assert "path diversity:" in out
        assert "edge connectivity: 3" in out

    def test_metrics_four_rings(self, capsys):
        main(["metrics", "--kind", "four-rings"])
        out = capsys.readouterr().out
        assert "switches / links:  24" in out


class TestTraceFlag:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["--trace", str(trace), "schedule", "--switches", "12",
                     "--seed", "1", "--clusters", "3", "--randoms", "1"]) == 0
        counts = validate_trace_file(trace)
        assert counts["manifest"] == 1
        assert counts["metrics"] == 1
        assert counts["span"] >= 1

    def test_trace_flag_accepted_after_subcommand(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["schedule", "--switches", "12", "--seed", "1",
                     "--clusters", "3", "--randoms", "1",
                     "--trace", str(trace)]) == 0
        assert validate_trace_file(trace)["manifest"] == 1

    def test_manifest_records_command_and_seed(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(["--trace", str(trace), "schedule", "--switches", "12",
              "--seed", "5", "--clusters", "3", "--randoms", "1"])
        manifest = json.loads(trace.read_text().splitlines()[0])
        assert manifest["command"] == "schedule"
        assert manifest["seed"] == 5

    def test_trace_does_not_change_results(self, tmp_path, capsys):
        args = ["schedule", "--switches", "12", "--seed", "1",
                "--clusters", "3", "--randoms", "2"]
        main(args)
        plain = capsys.readouterr().out
        main(["--trace", str(tmp_path / "t.jsonl")] + args)
        assert capsys.readouterr().out == plain


class TestReportCommand:
    def test_report_renders_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["--trace", str(trace), "simulate", "--switches", "8",
              "--seed", "1", "--clusters", "2", "--randoms", "1",
              "--points", "2", "--measure", "300", "--warmup", "100",
              "--max-rate", "0.01"])
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "per-phase time breakdown" in out
        assert "slowest spans" in out

    def test_report_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "absent.jsonl")])


class TestFailuresCommand:
    def test_failures_output(self, capsys):
        assert main(["failures", "--switches", "12", "--seed", "1",
                     "--clusters", "3", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "failure injection" in out
        assert "survivable failures: 3/3" in out

    def test_report_header_names_the_real_network(self, tmp_path, capsys):
        path = tmp_path / "f.html"
        assert main(["failures", "--kind", "four-rings", "--limit", "1",
                     "--report", str(path)]) == 0
        meta = path.read_text().split('<p class="meta">')[1]
        meta = meta.split("</p>")[0]
        assert "<code>4x6-rings (24 switches)</code>" in meta
        assert "seed" not in meta and "replications" not in meta


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestServiceCommands:
    """``repro submit`` / ``repro status`` against a live loopback daemon."""

    @pytest.mark.parametrize("flag", ["--no-dedup", "--no-batching"])
    def test_serve_rejects_the_removed_baseline_flags(self, flag, capsys):
        # Parsed, not run: a parser that accepted the flag would start a
        # daemon instead of failing.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_submit_method_choices_are_the_servable_methods(self):
        from repro.cli import build_parser
        from repro.service.protocol import SEARCH_METHODS

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["submit"]._actions
                      if a.dest == "method")
        assert method.choices == sorted(SEARCH_METHODS)

    @pytest.fixture()
    def service(self):
        from repro.service import ServiceConfig, running_service

        with running_service(ServiceConfig(port=0, workers=1)) as svc:
            yield svc

    def test_submit_prints_scores_and_partition(self, service, capsys):
        host, port = service.address
        assert main(["submit", "--host", host, "--port", str(port),
                     "--switches", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "F_G=" in out and "cluster 0:" in out
        assert "served:   computed" in out

    def test_second_submit_is_served_from_the_store(self, service, capsys):
        host, port = service.address
        args = ["submit", "--host", host, "--port", str(port),
                "--switches", "8", "--seed", "3"]
        main(args)
        capsys.readouterr()
        main(args)
        assert "served:   store" in capsys.readouterr().out

    def test_submit_json_emits_the_canonical_payload(self, service, capsys):
        from repro.service import ScheduleRequest, execute_request
        from repro.topology.irregular import random_irregular_topology

        host, port = service.address
        assert main(["submit", "--host", host, "--port", str(port),
                     "--switches", "8", "--seed", "4", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        # The CLI seeds the generated topology and the search identically.
        topo = random_irregular_topology(8, seed=4)
        req = ScheduleRequest.build(topo, clusters=4, seed=4)
        assert printed == execute_request(req.to_dict())

    def test_submit_request_file_round_trip(self, service, tmp_path, capsys):
        from repro.service import ScheduleRequest
        from repro.topology.irregular import random_irregular_topology

        topo = random_irregular_topology(8, seed=6)
        req = ScheduleRequest.build(topo, clusters=2, seed=6)
        path = tmp_path / "req.json"
        path.write_text(json.dumps(req.to_dict(), indent=2))
        host, port = service.address
        out_path = tmp_path / "resp.json"
        assert main(["submit", "--host", host, "--port", str(port),
                     "--request", str(path), "--save", str(out_path)]) == 0
        saved = json.loads(out_path.read_text())
        assert saved["fingerprint"] == req.fingerprint()

    def test_status_renders_counters(self, service, capsys):
        host, port = service.address
        main(["submit", "--host", host, "--port", str(port),
              "--switches", "8", "--seed", "5"])
        capsys.readouterr()
        assert main(["status", "--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "requests:" in out and "store:" in out and "pool:" in out

    def test_status_prints_every_rejection_reason(self, tmp_path, capsys):
        from repro.chaos import ChaoticExecutor, hang_at
        from repro.service import ServiceConfig, running_service

        executor = ChaoticExecutor(hang_at(1, delay=30.0),
                                   str(tmp_path / "latch"))
        config = ServiceConfig(port=0, workers=1, executor=executor,
                               request_deadline=1.0,
                               wal_path=tmp_path / "svc.wal")
        with running_service(config) as svc:
            host, port = map(str, svc.address)
            with pytest.raises(SystemExit, match="deadline"):
                main(["submit", "--host", host, "--port", port,
                      "--switches", "8", "--seed", "5"])
            capsys.readouterr()
            assert main(["status", "--host", host, "--port", port]) == 0
        out = capsys.readouterr().out
        assert ("rejected:       backpressure=0 admission=0 protocol=0 "
                "failed=0 shed=0 degraded=0 deadline=1") in out
        assert ("supervisor:       1 restarts, 0 redispatches, "
                "breaker closed") in out
        assert "wal:              0 pending" in out

    def test_status_json_is_a_valid_service_status(self, service, capsys):
        from repro.service import ServiceStatus

        host, port = service.address
        assert main(["status", "--host", host, "--port", str(port),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ServiceStatus.from_dict(payload).queue_capacity == 64

    def test_submit_without_a_service_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit, match="no service"):
            main(["submit", "--host", "127.0.0.1", "--port", "1",
                  "--switches", "8"])

    def test_truncated_request_file_names_it(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "schedule_request", "vers')
        with pytest.raises(SystemExit, match=f"^{re.escape(str(path))}: cannot read"):
            main(["submit", "--port", "1", "--request", str(path)])

    def test_bad_request_file_fails_cleanly(self, service, tmp_path):
        host, port = service.address
        path = tmp_path / "bad.json"
        path.write_text('{"type": "schedule_request"}')
        with pytest.raises(SystemExit):
            main(["submit", "--host", host, "--port", str(port),
                  "--request", str(path)])
