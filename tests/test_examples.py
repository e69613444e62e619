"""Smoke tests: every shipped example must run and print its conclusions.

Examples are the de-facto acceptance tests of the public API; they are
executed in-process (importlib) so coverage tools see them and failures
carry full tracebacks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "scheduled mapping (OP)" in out
        assert "C_c" in out and "accepted" in out

    def test_video_on_demand(self, capsys):
        out = run_example("video_on_demand", capsys)
        assert "vod-news" in out and "analytics" in out
        assert "scheduled" in out and "random" in out

    def test_topology_study(self, capsys):
        out = run_example("topology_study", capsys)
        assert "four rings 4x6" in out
        assert "hypercube 4d" in out

    def test_all_examples_covered(self):
        """Every example file on disk has a smoke test above."""
        files = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        tested = {"quickstart", "video_on_demand", "topology_study"}
        assert files == tested, f"untested examples: {files - tested}"
