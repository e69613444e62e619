"""The four benchmark workloads; ``run.py`` starts one interpreter per set-up.

Run through ``run.py``, which times the set-up and adds ``setup_s`` and
``peak_rss_mb``.  Started directly::

    PYTHONPATH=src python bench/workloads.py --workload NAME --seed N \
        --seconds S [--trace 0|1] [--setup-only] [--toy] \
        [--reference PATH] [--workdir DIR] [--trace-path PATH]

Protocol on stdout: ``READY`` once inputs are generated and the warm-up has
touched every lazy path, then (unless ``--setup-only``) one JSON line with
the end-to-end numbers, the per-layer numbers of the traced repeat, and the
check verdicts.  Diagnostics go to stderr.

Every unit of work carries ``bench.*`` spans around its calls into the
program's layers.  They cost nothing untraced; the traced repeat records
them with :func:`repro.obs.trace_run`, and the per-layer metrics come only
from those spans and from counters the public API returns, so spans added
inside the program later cannot change what a metric means.
"""

from __future__ import annotations

import argparse
import contextvars
import hashlib
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.mapping import Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import cached_distance_table, configure_cache
from repro.experiments.common import paper_16switch_setup
from repro.experiments.fig3_sim16 import default_sim_config, run_sim_figure
from repro.obs import JsonlSink, MemorySink, collect_manifest, trace_run
from repro.obs import trace as _trace
from repro.routing.updown import UpDownRouting
from repro.service import (
    ProtocolError,
    ScheduleRequest,
    ScheduleResponse,
    ServiceClient,
    ServiceError,
    WriteAheadLog,
    build_search,
    execute_request,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import canonical_payload, make_simulator
from repro.simulation.engine_vector import simulate_batch_vector
from repro.simulation.equivalence import check_equivalence
from repro.simulation.traffic import IntraClusterTraffic
from repro.topology.irregular import random_irregular_topology
from repro.util.rng import derive_seed

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_REFERENCE = BENCH_DIR / "reference.json"

#: The paper's 16-switch network (``repro figures`` uses this topology
#: seed).  fig3 and the ladder keep it fixed so the benchmark seed moves
#: the Tabu start, the random baselines and the replication streams, not
#: the amount of simulated traffic.
PAPER_TOPOLOGY_SEED = 42
#: Pool width for the pooled paths; matches the 2-CPU host the bounds were
#: measured on.
WORKERS = 2
#: Fewest timed units per run, so a slow commit still reports a median.
MIN_UNITS = 3
#: Length of the traced closed loop of the service workload, in seconds.
TRACED_LOOP_SECONDS = 4.0


def digest(obj: Any) -> str:
    """sha256 of an object's canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def p95(values: List[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def spanned(obj: Any, attr: str, span_name: str, calls: list) -> None:
    """Wrap ``obj.attr`` in a ``span_name`` span and log its return values."""
    original = getattr(obj, attr)

    def wrapper(*args, **kwargs):
        with _trace.span(span_name):
            out = original(*args, **kwargs)
        calls.append(out)
        return out

    setattr(obj, attr, wrapper)


def prebuild_table(topology) -> int:
    """Build ``topology``'s distance table into the cache under a span.

    The program's own lookup then hits the cache, so the table build is
    timed through the public API without patching the program.  Returns
    the number of switch pairs in the table.
    """
    with _trace.span("bench.distance.table"):
        cached_distance_table(UpDownRouting(topology))
    n = topology.num_switches
    return n * (n - 1) // 2


# --------------------------------------------------------------------- #
# span accounting
# --------------------------------------------------------------------- #

class SpanTotals:
    """Per-name totals of the ``bench.`` spans in a list of trace records.

    A bench span's self time excludes the bench spans nested in it;
    program spans are ignored, so they can be added later without
    changing any number here.
    """

    def __init__(self, records: List[Dict[str, Any]]):
        spans = {r["span_id"]: r for r in records if r.get("type") == "span"}

        def bench_parent(rec):
            pid = rec.get("parent_id")
            while pid is not None and pid in spans:
                if spans[pid]["name"].startswith("bench."):
                    return pid
                pid = spans[pid].get("parent_id")
            return None

        bench = {sid: r for sid, r in spans.items()
                 if r["name"].startswith("bench.")}
        child_time: Dict[int, float] = {}
        top = []
        for sid, rec in bench.items():
            parent = bench_parent(rec)
            if parent is None:
                top.append((rec["t_start"], rec["t_end"]))
            else:
                child_time[parent] = child_time.get(parent, 0.0) + rec["duration"]
        self.durations: Dict[str, List[float]] = {}
        self.self_time: Dict[str, float] = {}
        for sid, rec in bench.items():
            name = rec["name"][len("bench."):]
            self.durations.setdefault(name, []).append(rec["duration"])
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + rec["duration"] - child_time.get(sid, 0.0))
        self.covered = _union_length(top)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def median(self, name: str) -> float:
        return statistics.median(self.durations[name])


def _union_length(intervals) -> float:
    covered = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    return covered


def common_layers(spans: SpanTotals, wall: float, untraced: float, *,
                  pairs: int, searches: list, traced: float) -> Dict[str, float]:
    """The per-layer metrics every workload measures the same way.

    ``traced`` and ``untraced`` are the same timing with and without the
    tracer; their ratio is the tracing overhead.
    """
    table_s = spans.total("distance.table")
    tabu_s = spans.total("search.tabu")
    evaluations = sum(r.search.evaluations for r in searches)
    return {
        "distance.table_s": table_s,
        "distance.pairs_per_s": pairs / table_s,
        "search.tabu_s": tabu_s,
        "search.evaluations": evaluations,
        "search.evals_per_s": evaluations / tabu_s,
        "quality.c_c_mean": statistics.fmean(r.c_c for r in searches),
        "unaccounted_s": wall - spans.covered,
        "trace_overhead_frac": traced / untraced - 1.0,
    }


def simulation_counters(results) -> Dict[str, float]:
    """Simulated cycles, skipped share and messages of a set of results."""
    executed = sum(r.meta["cycles_executed"] for r in results)
    skipped = sum(r.meta["cycles_skipped"] for r in results)
    return {
        "simulation.cycles": sum(r.warmup_cycles + r.cycles_measured
                                 for r in results),
        "simulation.skip_ratio": skipped / (executed + skipped),
        "simulation.messages": sum(r.messages_completed for r in results),
    }


NO_SIMULATION = {
    "simulation.saturation_frac": 0.0,
    "simulation.sweep_frac": 0.0,
    "simulation.probes_frac": 0.0,
    "simulation.vector_frac": 0.0,
    "simulation.cycles": 0,
    "simulation.cycles_per_s": 0.0,
    "simulation.skip_ratio": 0.0,
    "simulation.messages": 0,
}
NO_SERVICE = {
    "service.overhead_frac": 0.0,
    "service.wal_frac": 0.0,
    "service.store_hit_frac": 0.0,
}


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #

class Bench:
    """One workload: inputs from the seed, a timed loop, checks, a trace.

    ``reference`` is this seed's entry of ``reference.json`` or ``None``;
    without it only the structural checks run.
    """

    name = ""

    def __init__(self, seed: int, toy: bool, reference: Optional[dict],
                 workdir: Path):
        self.seed = seed
        self.toy = toy
        self.reference = reference
        self.workdir = workdir
        self.times: List[float] = []
        self.completed = 0
        self.attempted = 0
        self.failures: Dict[str, List[str]] = {}

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    def warm_up(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def end_to_end(self) -> Dict[str, float]:
        raise NotImplementedError

    def traced(self) -> Callable[[List[dict]], Dict[str, float]]:
        """Run the traced repeat; return a function of its trace records
        that yields the per-layer metrics."""
        raise NotImplementedError

    def make_reference(self) -> Optional[dict]:
        """This seed's entry for ``reference.json`` (``None``: no data)."""
        return None

    def close(self) -> None:
        pass


class SerialBench(Bench):
    """A workload whose unit of work runs back to back in this process.

    Unit ``index`` works on input ``index % per_round``.  Units run in
    whole rounds, so every run times the same inputs however fast the
    host is.
    """

    per_round = 1

    def unit(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> List[str]:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        """Run rounds while the next one is expected to end within
        ``seconds`` (and at least MIN_UNITS units)."""
        start = time.perf_counter()
        index = 0
        while index < MIN_UNITS or (
                time.perf_counter() - start
                + self.per_round * statistics.median(self.times) <= seconds):
            for _ in range(self.per_round):
                t0 = time.perf_counter()
                self.attempted += 1
                output = self.unit(index)
                self.times.append(time.perf_counter() - t0)
                for message in self.check(index, output):
                    self.fail(f"unit {index}", message)
                index += 1
        self.completed = index

    def end_to_end(self) -> Dict[str, float]:
        n = self.per_round
        run_s = statistics.median(statistics.median(self.times[k::n])
                                  for k in range(n))
        return {
            "run_s": run_s,
            # A run times 3-6 units: no percentile above the median has a
            # sample beyond it, and the slowest unit is host noise.
            "p95_s": run_s,
            "throughput": len(self.times) / sum(self.times),
        }

    def traced(self):
        """Trace unit 0, and compare it with unit 0's untraced times."""
        t0 = time.perf_counter()
        self.attempted += 1
        output = self.unit(0)
        wall = time.perf_counter() - t0
        for message in self.check(0, output):
            self.fail("traced unit 0", message)
        untraced = statistics.median(self.times[::self.per_round])
        return lambda records: self.layers(SpanTotals(records), wall,
                                           untraced, output)

    def layers(self, spans: SpanTotals, wall: float, untraced: float,
               output: Any) -> Dict[str, float]:
        raise NotImplementedError


class Fig3(SerialBench):
    """``repro figures --fig 3``: OP plus random mappings, S1-S9, probes."""

    name = "fig3-16sw"

    def __init__(self, *args):
        super().__init__(*args)
        base = default_sim_config()
        if self.toy:
            self.randoms, self.points = 2, 3
            self.config = replace(base, warmup_cycles=50, measure_cycles=200)
        else:
            self.randoms, self.points = 9, 9
            self.config = base
        self.topology = random_irregular_topology(16, seed=PAPER_TOPOLOGY_SEED)
        self.first: Optional[dict] = None

    def warm_up(self) -> None:
        setup = paper_16switch_setup(self.seed, topology_seed=PAPER_TOPOLOGY_SEED)
        tiny = replace(self.config, warmup_cycles=20, measure_cycles=50)
        run_sim_figure("warm-up", setup, num_random=1, config=tiny,
                       num_points=2, workers=WORKERS)

    def unit(self, index: int):
        configure_cache(clear=True)
        pairs = prebuild_table(self.topology)
        setup = paper_16switch_setup(self.seed, topology_seed=PAPER_TOPOLOGY_SEED)
        searches: list = []
        sweeps: list = []
        spanned(setup.scheduler, "schedule", "bench.search.tabu", searches)
        spanned(setup, "load_ladder", "bench.simulation.saturation", [])
        spanned(setup, "sweep", "bench.simulation.sweep", sweeps)
        spanned(setup, "saturation_throughputs", "bench.simulation.probes", [])
        # run_fig3 with a settable ladder length, for the toy size.
        result = run_sim_figure("Figure 3", setup, num_random=self.randoms,
                                config=self.config, num_points=self.points,
                                workers=WORKERS)
        return result, pairs, searches, sweeps

    def summarize(self, output) -> dict:
        result = output[0]
        return {
            "payload_sha256": {
                name: [digest(canonical_payload(p.result)) for p in points]
                for name, points in result.sweeps.items()
            },
            "op_gain": result.op_over_best_random,
        }

    def check(self, index, output) -> List[str]:
        result = output[0]
        summary = self.summarize(output)
        problems = []
        if len(result.mappings) != self.randoms + 1:
            problems.append(f"{len(result.mappings)} mappings, expected "
                            f"{self.randoms + 1}")
        if any(len(points) != self.points for points in result.sweeps.values()):
            problems.append("a sweep is missing points")
        if not (math.isfinite(summary["op_gain"]) and summary["op_gain"] > 0):
            problems.append(f"op_gain {summary['op_gain']!r} is not positive")
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            problems.append("sweep payloads differ from the first repeat")
        if self.reference is not None:
            if summary["payload_sha256"] != self.reference["payload_sha256"]:
                problems.append("sweep payload digests differ from the reference")
            if summary["op_gain"] != self.reference["op_gain"]:
                problems.append(f"op_gain {summary['op_gain']!r} != reference "
                                f"{self.reference['op_gain']!r}")
        return problems

    def layers(self, spans, wall, untraced, output):
        _result, pairs, searches, sweeps = output
        points = [p.result for sweep in sweeps for p in sweep]
        engine_s = sum(sum(r.perf.values()) for r in points)
        sweep_s = spans.total("simulation.sweep")
        counters = simulation_counters(points)
        return {
            **common_layers(spans, wall, untraced, pairs=pairs,
                            searches=searches, traced=wall),
            **NO_SIMULATION,
            **counters,
            "simulation.saturation_frac":
                spans.self_time["simulation.saturation"] / wall,
            "simulation.sweep_frac": sweep_s / wall,
            "simulation.probes_frac": spans.total("simulation.probes") / wall,
            "simulation.cycles_per_s": counters["simulation.cycles"] / engine_s,
            "parallel.busy_frac": engine_s / (WORKERS * sweep_s),
            **NO_SERVICE,
        }

    def make_reference(self) -> dict:
        return self.summarize(self.unit(0))


class Ladder(SerialBench):
    """The OP mapping's S1-S9 ladder, many seeds, on the ``vector`` engine."""

    name = "ladder-vector-16sw"

    def __init__(self, *args):
        super().__init__(*args)
        if self.toy:
            self.reps, self.points, self.ref_reps = 2, 3, 2
            self.config = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                                           seed=7)
        else:
            self.reps, self.points, self.ref_reps = 96, 9, 32
            self.config = SimulationConfig(warmup_cycles=400,
                                           measure_cycles=1600, seed=7)
        self.topology = random_irregular_topology(16, seed=PAPER_TOPOLOGY_SEED)
        setup = paper_16switch_setup(self.seed, topology_seed=PAPER_TOPOLOGY_SEED)
        self.rates = setup.load_ladder(self.config, n=self.points)
        self.first: Optional[str] = None

    def jobs(self, setup, mapping, reps: int, engine: str) -> list:
        traffic = IntraClusterTraffic(mapping)
        return [
            (setup.routing_table, traffic, rate,
             replace(self.config, engine=engine,
                     seed=derive_seed(self.seed, "ladder", point, rep)))
            for point, rate in enumerate(self.rates) for rep in range(reps)
        ]

    def warm_up(self) -> None:
        setup = paper_16switch_setup(self.seed, topology_seed=PAPER_TOPOLOGY_SEED)
        tiny = replace(self.config, warmup_cycles=20, measure_cycles=50)
        traffic = IntraClusterTraffic(setup.op_mapping().mapping)
        simulate_batch_vector([
            (setup.routing_table, traffic, rate, replace(tiny, engine="vector"))
            for rate in self.rates[:2]])

    def unit(self, index: int):
        configure_cache(clear=True)
        pairs = prebuild_table(self.topology)
        setup = paper_16switch_setup(self.seed, topology_seed=PAPER_TOPOLOGY_SEED)
        searches: list = []
        spanned(setup.scheduler, "schedule", "bench.search.tabu", searches)
        jobs = self.jobs(setup, setup.op_mapping().mapping, self.reps, "vector")
        with _trace.span("bench.simulation.vector"):
            results = simulate_batch_vector(jobs)
        return results, pairs, searches

    def samples(self, results, reps: int) -> dict:
        """Per-rate accepted traffic and latency, for ``check_equivalence``."""
        return {
            f"S{point + 1}": {
                "accepted": [r.accepted_flits_per_switch_cycle
                             for r in results[point * reps:(point + 1) * reps]],
                "latency": [r.avg_latency
                            for r in results[point * reps:(point + 1) * reps]],
            }
            for point in range(self.points)
        }

    def check(self, index, output) -> List[str]:
        results = output[0]
        problems = []
        if len(results) != self.reps * self.points:
            problems.append(f"{len(results)} results, expected "
                            f"{self.reps * self.points}")
        if not all(math.isfinite(r.accepted_flits_per_switch_cycle)
                   and r.accepted_flits_per_switch_cycle > 0 for r in results):
            problems.append("a replication accepted no traffic")
        payloads = digest([canonical_payload(r) for r in results])
        if self.first is None:
            self.first = payloads
        elif payloads != self.first:
            problems.append("replication payloads differ from the first repeat")
        if self.reference is not None:
            report = check_equivalence(self.samples(results, self.reps),
                                       self.reference["fast_samples"],
                                       alpha=0.01)
            if not report.equivalent:
                problems.append("vector ladder is not statistically equivalent "
                                "to the fast reference:\n" + report.summary())
        return problems

    def layers(self, spans, wall, untraced, output):
        results, pairs, searches = output
        vector_s = spans.total("simulation.vector")
        counters = simulation_counters(results)
        return {
            **common_layers(spans, wall, untraced, pairs=pairs,
                            searches=searches, traced=wall),
            **NO_SIMULATION,
            **counters,
            "simulation.vector_frac": vector_s / wall,
            "simulation.cycles_per_s": counters["simulation.cycles"] / vector_s,
            "parallel.busy_frac": 0.0,
            **NO_SERVICE,
        }

    def make_reference(self) -> dict:
        setup = paper_16switch_setup(self.seed, topology_seed=PAPER_TOPOLOGY_SEED)
        jobs = self.jobs(setup, setup.op_mapping().mapping, self.ref_reps, "fast")
        results = [make_simulator(table, traffic, rate, cfg).run()
                   for table, traffic, rate, cfg in jobs]
        return {"fast_samples": self.samples(results, self.ref_reps)}


class Schedule(SerialBench):
    """``repro schedule`` at 128 switches: distance table plus Tabu, cold."""

    name = "schedule-128sw"

    def __init__(self, *args):
        super().__init__(*args)
        switches, clusters, count = (8, 2, 2) if self.toy else (128, 8, 4)
        self.networks = [
            random_irregular_topology(switches,
                                      seed=derive_seed(self.seed, "schedule", k))
            for k in range(count)
        ]
        self.per_round = count
        self.workload = Workload.uniform(clusters, 4 * switches // clusters)
        self.first: Dict[int, tuple] = {}

    def warm_up(self) -> None:
        small = random_irregular_topology(8, seed=self.seed)
        CommunicationAwareScheduler(small).schedule(Workload.uniform(2, 16),
                                                    seed=self.seed)

    def unit(self, index: int):
        network = index % len(self.networks)
        topology = self.networks[network]
        configure_cache(clear=True)
        pairs = prebuild_table(topology)
        scheduler = CommunicationAwareScheduler(topology)
        with _trace.span("bench.search.tabu"):
            result = scheduler.schedule(self.workload, seed=self.seed)
        return network, pairs, scheduler, result

    def check(self, index, output) -> List[str]:
        network, _pairs, scheduler, result = output
        topology = self.networks[network]
        labels = result.partition.labels
        problems = []
        if len(labels) != topology.num_switches or (labels < 0).any():
            problems.append("a switch is unassigned")
        quotas = self.workload.switch_quota(topology)
        if result.partition.sizes() != quotas:
            problems.append(f"cluster sizes {result.partition.sizes()} "
                            f"!= quotas {quotas}")
        if result.c_c != scheduler.evaluate(result.partition)["C_c"]:
            problems.append("C_c differs from scheduler.evaluate")
        key = result.partition.canonical_key()
        if self.first.setdefault(network, key) != key:
            problems.append(f"network {network}: partition differs from the "
                            "first repeat")
        if self.reference is not None:
            ref = self.reference["networks"][network]
            drift = max(abs(a - b) for a, b in
                        zip(scheduler.table.values.sum(axis=1),
                            ref["row_sums"]))
            if drift > 1e-9:
                problems.append(f"network {network}: distance-table row sums "
                                f"drift {drift:.3g} from the reference")
            if result.c_c < ref["c_c"] - 1e-9:
                problems.append(f"network {network}: C_c {result.c_c!r} is "
                                f"worse than the reference {ref['c_c']!r}")
        return problems

    def layers(self, spans, wall, untraced, output):
        return {
            **common_layers(spans, wall, untraced, pairs=output[1],
                            searches=[output[3]], traced=wall),
            **NO_SIMULATION,
            "parallel.busy_frac": 0.0,
            **NO_SERVICE,
        }

    def make_reference(self) -> dict:
        networks = []
        for index in range(len(self.networks)):
            _n, _p, scheduler, result = self.unit(index)
            networks.append({
                "row_sums": scheduler.table.values.sum(axis=1).tolist(),
                "c_c": result.c_c,
            })
        return {"networks": networks}


class Service(Bench):
    """Unique schedule requests to a ``repro serve`` daemon, closed loop."""

    name = "service-16sw"
    CLIENTS = 2
    CHECK_EVERY = 20
    #: The first PROBES measured requests, the same ones for a given seed,
    #: are rerun in process by the traced repeat.
    PROBES = 30

    def __init__(self, *args):
        super().__init__(*args)
        switches, self.clusters, count = (8, 2, 2) if self.toy else (16, 4, 4)
        self.max_requests = 20 if self.toy else None
        self.networks = [
            random_irregular_topology(switches,
                                      seed=derive_seed(self.seed, "service", k))
            for k in range(count)
        ]
        self.next_request = 0
        self.first = 0
        # Only the replies the checks and probes need are kept, so the
        # client's memory does not grow with the number of requests.
        self.kept: Dict[int, dict] = {}
        self.rundir = self.workdir / f"service-{self.seed}-{time.time_ns()}"
        self.rundir.mkdir(parents=True)
        self.address = None
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--wal", str(self.rundir / "service.wal"),
             "--deadline", "60"],
            stdout=subprocess.PIPE, text=True)
        try:
            banner = self.daemon.stdout.readline()
            match = re.search(r"listening on ([^\s:]+):(\d+)", banner)
            if match is None:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.address = (match.group(1), int(match.group(2)))
            with ServiceClient(*self.address) as client:
                client.wait_until_ready(timeout=30.0)
        except BaseException:
            self.close()
            raise

    def request(self, index: int) -> ScheduleRequest:
        topology = self.networks[index % len(self.networks)]
        return ScheduleRequest.build(topology, clusters=self.clusters,
                                     seed=index)

    def keep(self, index: int) -> bool:
        """Whether a measured request's reply is checked or probed later."""
        offset = index - self.first
        return offset < self.PROBES or offset % self.CHECK_EVERY == 0

    def loop(self, seconds: float, max_requests: Optional[int],
             keep: Callable[[int], bool]) -> tuple:
        """Closed loop: CLIENTS threads, one connection and request each.

        Returns (latencies, wall).  A request's latency is timed at the
        client; each one runs in a ``bench.service.request`` span.  Every
        reply is checked as it arrives; those ``keep`` selects are kept.
        """
        latencies: List[float] = []
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds
        issued = [0]
        last_done = [start]

        def client_main():
            with ServiceClient(*self.address, timeout=60.0) as client:
                while True:
                    with lock:
                        if (time.perf_counter() >= deadline
                                or (max_requests is not None
                                    and issued[0] >= max_requests)):
                            return
                        issued[0] += 1
                        index = self.next_request
                        self.next_request += 1
                        # The tracer's span-id counter is not thread-safe.
                        span = _trace.span("bench.service.request")
                    payload = self.request(index).to_dict()
                    t0 = time.perf_counter()
                    try:
                        with span:
                            reply = client.submit_payload(payload)
                    except (ServiceError, ProtocolError, OSError) as exc:
                        self.fail(f"request {index}", repr(exc))
                        continue
                    done = time.perf_counter()
                    latencies.append(done - t0)
                    with lock:
                        last_done[0] = max(last_done[0], done)
                    self.check_reply(index, reply)
                    if keep(index):
                        self.kept[index] = reply.get("result")

        threads = [threading.Thread(target=contextvars.copy_context().run,
                                    args=(client_main,))
                   for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        self.attempted += issued[0]
        return latencies, last_done[0] - start

    def check_reply(self, index: int, reply: dict) -> None:
        try:
            ScheduleResponse.from_dict(reply["result"])
        except (ProtocolError, KeyError, TypeError) as exc:
            self.fail(f"request {index}", f"bad response: {exc}")
        if reply.get("served", {}).get("from") != "computed":
            self.fail(f"request {index}",
                      f"served from {reply.get('served')}, not computed")

    def check_identity(self, indices: List[int]) -> None:
        """These replies must equal in-process execution of the request."""
        for index in indices:
            payload = self.request(index).to_dict()
            with _trace.span("bench.service.execute"):
                expected = execute_request(payload)
            if digest(self.kept[index]) != digest(expected):
                self.fail(f"request {index}",
                          "reply differs from in-process execute_request")

    def warm_up(self) -> None:
        count = 2 * len(self.networks)
        latencies, _wall = self.loop(60.0, count, lambda index: False)
        if len(latencies) != count or self.failures:
            raise RuntimeError(f"warm-up: {self.failures}")
        self.attempted = 0

    def measure(self, seconds: float) -> None:
        self.first = self.next_request
        self.times, self.wall = self.loop(seconds, self.max_requests,
                                          self.keep)
        self.completed = len(self.times)
        self.check_identity([i for i in sorted(self.kept)
                             if (i - self.first) % self.CHECK_EVERY == 0])

    def end_to_end(self) -> Dict[str, float]:
        return {
            "run_s": statistics.median(self.times),
            "p95_s": p95(self.times),
            "throughput": self.completed / self.wall,
        }

    def traced(self):
        with ServiceClient(*self.address) as client:
            served = client.status().served
        probes = [i for i in sorted(self.kept) if i - self.first < self.PROBES]
        t0 = time.perf_counter()
        latencies, _wall = self.loop(min(TRACED_LOOP_SECONDS, self.wall),
                                     self.max_requests, lambda index: False)
        configure_cache(clear=True)
        pairs = sum(prebuild_table(topology) for topology in self.networks)
        self.check_identity(probes)
        searches = []
        for index in probes:
            request = self.request(index)
            scheduler = CommunicationAwareScheduler(
                request.topology, search=build_search(request.method,
                                                      request.params))
            with _trace.span("bench.search.tabu"):
                searches.append(scheduler.schedule(request.workload,
                                                   seed=request.seed))
        with WriteAheadLog(self.rundir / "probe.wal") as wal:
            for index in probes:
                request = self.request(index)
                fp, payload = request.fingerprint(), request.to_dict()
                with _trace.span("bench.service.wal"):
                    wal.append_accept(fp, payload).result()
                    wal.append_done(fp).result()
        wall = time.perf_counter() - t0
        p50 = statistics.median(self.times)

        def layers(records):
            spans = SpanTotals(records)
            execute = spans.median("service.execute")
            return {
                **common_layers(spans, wall, p50, pairs=pairs,
                                searches=searches,
                                traced=statistics.median(latencies)),
                **NO_SIMULATION,
                "parallel.busy_frac":
                    self.completed / self.wall * execute / WORKERS,
                "service.overhead_frac": (p50 - execute) / p50,
                "service.wal_frac": spans.median("service.wal") / p50,
                "service.store_hit_frac":
                    served.get("store", 0) / sum(served.values()),
            }

        return layers

    def close(self) -> None:
        """Stop the daemon (which reaps its pool) and wait for it."""
        if self.address is not None and self.daemon.poll() is None:
            try:
                with ServiceClient(*self.address) as client:
                    client.shutdown()
                self.daemon.wait(timeout=30.0)
            except (ServiceError, OSError, subprocess.TimeoutExpired):
                pass
        if self.daemon.poll() is None:
            self.daemon.kill()
        self.daemon.wait(timeout=30.0)
        self.daemon.stdout.close()
        shutil.rmtree(self.rundir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Fig3, Ladder, Schedule, Service)}


def load_reference(path: Path, workload: str, seed: int) -> Optional[dict]:
    """This (workload, seed)'s entry of a reference file, if it has one."""
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the harness tests")
    parser.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE)
    parser.add_argument("--workdir", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--trace-path", type=Path, default=None)
    args = parser.parse_args(argv)

    reference = load_reference(args.reference, args.workload, args.seed)
    bench = WORKLOADS[args.workload](args.seed, args.toy, reference, args.workdir)
    try:
        bench.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        bench.measure(args.seconds)
        per_layer = None
        if args.trace:
            sink = MemorySink()
            manifest = collect_manifest(
                "bench", argv=sys.argv[1:], seed=args.seed, workers=WORKERS,
                extra={"workload": args.workload, "toy": args.toy})
            with trace_run(sink, manifest=manifest):
                layers = bench.traced()
            per_layer = layers(sink.records)
            if args.trace_path is not None:
                jsonl = JsonlSink(args.trace_path)
                for record in sink.records:
                    jsonl.emit(record)
                jsonl.close()
        failed_ops = sorted(bench.failures)
        print(json.dumps({
            "attempted": bench.attempted,
            "failed": len(failed_ops),
            "completed": bench.completed,
            "checks": "reference" if reference is not None else "structural",
            "failures": {op: bench.failures[op] for op in failed_ops},
            "end_to_end": bench.end_to_end(),
            "unit_s": bench.times,
            "per_layer": per_layer,
        }), flush=True)
        return 0
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
