"""The documented public API must exist, compose as advertised, and be used."""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Trees whose code counts as reaching a definition: the library itself,
#: the benchmark harnesses and the examples.  Tests do not count.
REACHING_TREES = ("src", "bench", "benchmarks", "examples")

#: Public definitions that nothing in ``REACHING_TREES`` names, kept on
#: purpose.  One line of reason each; delete the entry with the code.
UNREACHED_ALLOWLIST = {
    "repro.routing.minimal.MinimalRouting":
        "second routing of the table oracle: supports up*/down* never yields",
    "repro.distance.resistance.equivalent_resistance":
        "batch-of-one oracle for the stacked resistance solve",
    "repro.obs.export.validate_exposition":
        "run inline by the CI metrics-exposition step",
    "repro.simulation.equivalence.check_rank_preservation":
        "leaves with the vector engine in the next benchmark change",
    "repro.faults.degrade.DegradedNetwork.verify":
        "deadlock-freedom safety check of a reconfigured routing",
    "repro.core.mapping.Partition.with_swap":
        "oracle the incremental swap state is checked against",
    "repro.search.state.PartitionState.recompute":
        "from-scratch rebuild the incremental state is checked against",
    "repro.topology.graph.Topology.relabeled":
        "relabeling for the equivariance property tests",
    "repro.core.quality.weighted_mapping_cost":
        "cost oracle for the process-level optimizer",
    "repro.experiments.failures.FaultStudyResult.deterministic_payload":
        "bit-identity comparator of the checkpoint/resume tests",
    "repro.reporting.study.VariationStudyResult.deterministic_payload":
        "bit-identity comparator of the checkpoint/resume tests",
    "repro.obs.sinks.MemorySink.by_type":
        "query helper of the in-memory sink that bench/ records into",
    "repro.obs.sinks.MemorySink.by_name":
        "query helper of the in-memory sink that bench/ records into",
}


def _used_names():
    """Every identifier and attribute name the reaching trees mention.

    Import aliases, ``__all__`` strings and docstrings are not uses: a
    name only counts where code loads, calls or subclasses it.
    """
    used = set()
    for tree in REACHING_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def _public_definitions():
    """``(qualified name, name)`` of every public module-level function or
    class under ``src/repro`` and every public method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, defs[:2])
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_definition_is_reached():
    used = _used_names()
    unreached = {qual for qual, name in _public_definitions()
                 if name not in used}
    unexpected = sorted(unreached - set(UNREACHED_ALLOWLIST))
    assert not unexpected, (
        "public definitions that only tests reach (delete them, move test "
        f"helpers into tests/, or allowlist them with a reason): {unexpected}"
    )
    stale = sorted(set(UNREACHED_ALLOWLIST) - unreached)
    assert not stale, f"allowlist entries that are reached or gone: {stale}"


def _module_imports(body):
    """Import statements at module scope, including under ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_imports(node.body + node.orelse
                                       + node.finalbody)
            for handler in node.handlers:
                yield from _module_imports(handler.body)


def _loaded_names(tree):
    """Names the module loads, including inside string annotations."""
    loaded = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded |= _loaded_names(ast.parse(node.value, mode="eval"))
    return loaded


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_module_imports():
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = _loaded_names(tree) | _exported_names(tree)
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                                  f"{bound}")
    assert not unused, f"module-level imports never used: {unused}"


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_readme_quickstart(self):
        # Exactly the snippet advertised in the package docstring/README.
        topo = repro.random_irregular_topology(16, seed=42)
        scheduler = repro.CommunicationAwareScheduler(topo)
        result = scheduler.schedule(repro.Workload.uniform(4, 16), seed=1)
        assert result.c_c > 1.0
        assert "F_G=" in result.summary()

    def test_distance_pipeline_composes(self):
        topo = repro.four_rings_topology()
        routing = repro.UpDownRouting(topo)
        table = repro.build_distance_table(routing)
        part = repro.Partition.from_clusters(
            [range(0, 6), range(6, 12), range(12, 18), range(18, 24)], 24
        )
        assert repro.clustering_coefficient(table, part) > 1.0

    def test_simulator_composes(self):
        topo = repro.random_irregular_topology(8, seed=1)
        routing = repro.UpDownRouting(topo)
        rt = repro.RoutingTable(routing)
        sim = repro.WormholeNetworkSimulator(
            rt, repro.UniformTraffic(topo), 0.01,
            repro.SimulationConfig(warmup_cycles=50, measure_cycles=200),
        )
        res = sim.run()
        assert res.messages_completed > 0

    def test_search_methods_share_interface(self, table8):
        from repro.search import SimilarityObjective

        obj = SimilarityObjective(table8, [4, 4])
        for cls in (repro.TabuSearch, repro.SimulatedAnnealing,
                    repro.GeneticAlgorithm, repro.GeneticSimulatedAnnealing,
                    repro.ExhaustiveSearch, repro.RandomSearch):
            method = cls()
            res = method.run(obj, seed=0)
            assert res.best_partition.sizes() == [4, 4]
