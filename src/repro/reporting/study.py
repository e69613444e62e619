"""Variation studies: a declarative grid of schedule what-ifs.

A :class:`StudySpec` names a network, a set of mappings (the scheduler's
"OP" plus random baselines), a set of fault scenarios, the engines to
run and the measurement plan; :func:`run_variation_study` executes every
``mapping x fault set x engine`` cell through the existing sweep and
fault-study machinery and emits one :class:`VariationRecord` per cell:

- the mapping's scheduler scores (``C_c``, ``F_G``, ``D_G``);
- per-rate latency and accepted-throughput means with Student-t
  confidence intervals over ``replications`` independently seeded runs
  (the same :func:`repro.simulation.equivalence.mean_ci` the
  statistical-equivalence contract uses);
- for fault cells, the fault study's repair gap (``C_c`` left on the
  table by warm-start repair vs a full reschedule);
- the cache/engine counters a private metrics registry collected while
  the cell ran.

Every simulation seed is derived from the spec seed and the cell's
coordinates alone, so the records are a pure function of the spec: two
runs of the same spec produce identical records (up to the counters,
which depend on process-global cache warmth) and byte-identical rendered
reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.mapping import Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import cached_routing_table
from repro.experiments.common import ExperimentSetup, MappingRecord
from repro.experiments.failures import FaultStudyResult, run_fault_study
from repro.faults.degrade import degrade
from repro.faults.model import FaultScenario
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel import WorkersLike
from repro.routing.tables import RoutingTable
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ENGINE_NAMES
from repro.simulation.equivalence import mean_ci
from repro.simulation.sweep import make_load_points, run_load_sweep
from repro.simulation.traffic import IntraClusterTraffic
from repro.topology.designed import four_rings_topology
from repro.topology.irregular import random_irregular_topology
from repro.util.rng import derive_seed
from repro.util.validation import check_tagged

PathLike = Union[str, Path]

HEALTHY = "healthy"

_SPEC_TYPE = "variation_study_spec"
_RECORD_TYPE = "variation_record"
_VERSION = 1


@dataclass(frozen=True)
class StudySpec:
    """The declarative grid of one variation study.

    ``fault_sets`` entries are :data:`HEALTHY` or fault labels:
    ``"link-<i>"`` (the i-th link of the topology, in link order) or
    ``"L<u>-<v>"`` (an explicit link).  ``engines`` entries are
    simulation engine names (``fast``/``reference``/``vector``).
    ``max_rate`` places the top of the load ladder; when ``None`` the
    study derives it from the OP mapping's saturation point like the
    figure drivers do (slower but parameter-free).
    """

    name: str = "variation-study"
    topology: str = "random"          # "random" | "four-rings"
    switches: int = 16
    topology_seed: int = 42
    clusters: int = 4
    seed: int = 42
    num_random: int = 2
    engines: Tuple[str, ...] = ("fast",)
    fault_sets: Tuple[str, ...] = (HEALTHY,)
    num_rates: int = 3
    max_rate: Optional[float] = None
    replications: int = 3
    warmup_cycles: int = 600
    measure_cycles: int = 2500
    baseline: str = "OP"
    repair_restarts: int = 1
    full_restarts: int = 2

    def __post_init__(self):
        if self.topology not in ("random", "four-rings"):
            raise ValueError(
                f"topology must be 'random' or 'four-rings', "
                f"got {self.topology!r}")
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}")
        if self.num_rates < 2:
            raise ValueError(f"num_rates must be >= 2, got {self.num_rates}")
        if not self.engines:
            raise ValueError("at least one engine is required")
        unknown = [e for e in self.engines if e not in ENGINE_NAMES]
        if unknown:
            raise ValueError(
                f"unknown engines {unknown}; allowed engines are "
                f"{list(ENGINE_NAMES)}")
        if not self.fault_sets:
            raise ValueError("at least one fault set is required")

    @property
    def cells(self) -> int:
        """Grid size: mappings x fault sets x engines."""
        return ((1 + self.num_random) * len(self.fault_sets)
                * len(self.engines))

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged JSON-ready dict."""
        return {
            "type": _SPEC_TYPE,
            "version": _VERSION,
            "name": self.name,
            "topology": self.topology,
            "switches": self.switches,
            "topology_seed": self.topology_seed,
            "clusters": self.clusters,
            "seed": self.seed,
            "num_random": self.num_random,
            "engines": list(self.engines),
            "fault_sets": list(self.fault_sets),
            "num_rates": self.num_rates,
            "max_rate": self.max_rate,
            "replications": self.replications,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "baseline": self.baseline,
            "repair_restarts": self.repair_restarts,
            "full_restarts": self.full_restarts,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "StudySpec":
        """Decode a spec payload (unknown keys rejected)."""
        check_tagged(d, _SPEC_TYPE, _VERSION)
        known = set(cls.__dataclass_fields__) | {"type", "version"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        kwargs = {k: d[k] for k in cls.__dataclass_fields__ if k in d}
        for key in ("engines", "fault_sets"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def load(cls, path: PathLike) -> "StudySpec":
        """Read a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path: PathLike) -> None:
        """Write the spec as indented JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _nan_to_none(x: Optional[float]) -> Optional[float]:
    if x is None:
        return None
    x = float(x)
    return None if not math.isfinite(x) else x


@dataclass
class VariationRecord:
    """One grid cell: a (mapping, fault set, engine) variation, measured.

    ``latency`` and ``throughput`` hold one ``{"mean", "lo", "hi"}``
    entry per load rate (Student-t CI over the replications; ``None``
    where the quantity is undefined, e.g. latency with nothing
    delivered).  ``repair_gap`` is ``None`` for healthy cells and for
    fault cells whose scenario left no single machine to repair.
    """

    name: str
    mapping: str
    fault_set: str
    engine: str
    c_c: float
    f_g: float
    d_g: float
    rates: List[float] = field(default_factory=list)
    latency: List[Dict[str, Optional[float]]] = field(default_factory=list)
    throughput: List[Dict[str, Optional[float]]] = field(default_factory=list)
    peak_throughput: Optional[float] = None
    repair_gap: Optional[float] = None
    counters: Dict[str, float] = field(default_factory=dict)
    replications: int = 1

    @property
    def top_latency(self) -> Optional[float]:
        """Mean latency at the highest load rate (the congestion probe)."""
        return self.latency[-1]["mean"] if self.latency else None

    def to_dict(self) -> Dict[str, Any]:
        """Encode as a tagged, strictly-JSON-safe dict."""
        return {
            "type": _RECORD_TYPE,
            "version": _VERSION,
            "name": self.name,
            "mapping": self.mapping,
            "fault_set": self.fault_set,
            "engine": self.engine,
            "c_c": self.c_c,
            "f_g": self.f_g,
            "d_g": self.d_g,
            "rates": list(self.rates),
            "latency": [dict(e) for e in self.latency],
            "throughput": [dict(e) for e in self.throughput],
            "peak_throughput": self.peak_throughput,
            "repair_gap": self.repair_gap,
            "counters": dict(self.counters),
            "replications": self.replications,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "VariationRecord":
        """Decode (and strictly validate) a record payload."""
        validate_variation_record(d)
        return cls(
            name=str(d["name"]),
            mapping=str(d["mapping"]),
            fault_set=str(d["fault_set"]),
            engine=str(d["engine"]),
            c_c=float(d["c_c"]),
            f_g=float(d["f_g"]),
            d_g=float(d["d_g"]),
            rates=[float(r) for r in d["rates"]],
            latency=[dict(e) for e in d["latency"]],
            throughput=[dict(e) for e in d["throughput"]],
            peak_throughput=d["peak_throughput"],
            repair_gap=d["repair_gap"],
            counters=dict(d["counters"]),
            replications=int(d["replications"]),
        )


_RECORD_REQUIRED = (
    "type", "version", "name", "mapping", "fault_set", "engine",
    "c_c", "f_g", "d_g", "rates", "latency", "throughput",
    "peak_throughput", "repair_gap", "counters", "replications",
)


def validate_variation_record(d: Any) -> None:
    """Raise :class:`ValueError` unless ``d`` is a valid record payload.

    This is the JSON-schema check the CI smoke job runs over every
    record a study emits.
    """
    if not isinstance(d, dict):
        raise ValueError(f"record payload must be a dict, got {type(d).__name__}")
    check_tagged(d, _RECORD_TYPE, _VERSION)
    missing = [k for k in _RECORD_REQUIRED if k not in d]
    if missing:
        raise ValueError(f"record missing keys: {missing}")
    unknown = sorted(set(d) - set(_RECORD_REQUIRED))
    if unknown:
        raise ValueError(f"record has unknown keys: {unknown}")
    for key in ("name", "mapping", "fault_set", "engine"):
        if not isinstance(d[key], str) or not d[key]:
            raise ValueError(f"record {key!r} must be a non-empty string")
    for key in ("c_c", "f_g", "d_g"):
        if not isinstance(d[key], (int, float)) or isinstance(d[key], bool):
            raise ValueError(f"record {key!r} must be a number")
    if not isinstance(d["rates"], list):
        raise ValueError("record 'rates' must be a list")
    for key in ("latency", "throughput"):
        entries = d[key]
        if not isinstance(entries, list) or len(entries) != len(d["rates"]):
            raise ValueError(
                f"record {key!r} must be a list parallel to 'rates'")
        for entry in entries:
            if (not isinstance(entry, dict)
                    or set(entry) != {"mean", "lo", "hi"}):
                raise ValueError(
                    f"record {key!r} entries must be mean/lo/hi dicts")
            for v in entry.values():
                if v is not None and (not isinstance(v, (int, float))
                                      or isinstance(v, bool)
                                      or not math.isfinite(v)):
                    raise ValueError(
                        f"record {key!r} values must be finite or null")
    for key in ("peak_throughput", "repair_gap"):
        v = d[key]
        if v is not None and (not isinstance(v, (int, float))
                              or isinstance(v, bool) or not math.isfinite(v)):
            raise ValueError(f"record {key!r} must be a finite number or null")
    if not isinstance(d["counters"], dict):
        raise ValueError("record 'counters' must be a dict")
    if not isinstance(d["replications"], int) or d["replications"] < 1:
        raise ValueError("record 'replications' must be a positive int")


@dataclass
class VariationStudyResult:
    """Every cell of one executed study, plus the spec that produced it.

    ``network`` is set only on results :func:`wrap_records` packaged from
    adapter records: it names the network(s) they were measured on, and
    report headers show it instead of the synthetic spec's topology,
    seeds and measurement plan, which the adapter does not have.
    """

    spec: StudySpec
    records: List[VariationRecord]
    rates: List[float]
    network: Optional[str] = None

    def record(self, name: str) -> VariationRecord:
        """The cell called ``name`` (``mapping/fault_set/engine``)."""
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no variation named {name!r}")

    def deterministic_payload(self) -> str:
        """Canonical JSON of every record's seed-determined fields.

        Counters are excluded: they depend on process-global cache
        warmth, not on the spec.  Two runs of the same spec — serial,
        parallel, or in different processes — must produce exactly
        these bytes.
        """
        rows = []
        for r in self.records:
            d = r.to_dict()
            d.pop("counters")
            rows.append(d)
        return json.dumps({"spec": self.spec.to_dict(), "rows": rows},
                          sort_keys=True)


def build_setup(spec: StudySpec) -> ExperimentSetup:
    """The network + scheduler + workload a spec describes."""
    if spec.topology == "four-rings":
        topo = four_rings_topology()
    else:
        topo = random_irregular_topology(
            spec.switches, seed=spec.topology_seed,
            name=f"study-{spec.switches}sw-t{spec.topology_seed}")
    sched = CommunicationAwareScheduler(topo)
    total_hosts = topo.num_switches * topo.hosts_per_switch
    if total_hosts % spec.clusters:
        raise ValueError(
            f"{total_hosts} hosts do not divide into {spec.clusters} clusters")
    workload = Workload.uniform(spec.clusters, total_hosts // spec.clusters)
    return ExperimentSetup(
        topology=topo,
        scheduler=sched,
        workload=workload,
        routing_table=cached_routing_table(sched.routing),
        seed=spec.seed,
    )


def _parse_fault_set(label: str, setup: ExperimentSetup) -> FaultScenario:
    """A fault-set label (``link-<i>`` or ``L<u>-<v>``) as a scenario."""
    links = list(setup.topology.links)
    if label.startswith("link-"):
        index = int(label[len("link-"):])
        if not 0 <= index < len(links):
            raise ValueError(
                f"fault set {label!r}: topology has {len(links)} links")
        return FaultScenario(links=(links[index],), name=label)
    if label.startswith("L") and "-" in label:
        u, v = label[1:].split("-", 1)
        return FaultScenario(links=((int(u), int(v)),), name=label)
    raise ValueError(
        f"unknown fault set {label!r}; use {HEALTHY!r}, 'link-<i>' or "
        "'L<u>-<v>'")


def _fault_tables(
    spec: StudySpec, setup: ExperimentSetup,
) -> Tuple[Dict[str, RoutingTable], Dict[str, Optional[float]]]:
    """Per-fault-set routing tables and repair gaps.

    The repair gap comes from a one-scenario fault study (warm-start
    repair vs full reschedule of the baseline mapping) — computed once
    per fault set and attached to every cell of that set.
    """
    tables: Dict[str, RoutingTable] = {HEALTHY: setup.routing_table}
    gaps: Dict[str, Optional[float]] = {HEALTHY: None}
    for label in spec.fault_sets:
        if label == HEALTHY:
            continue
        scenario = _parse_fault_set(label, setup)
        net = degrade(setup.topology, scenario)
        if not net.full_machine:
            raise ValueError(
                f"fault set {label!r} breaks the machine "
                f"({len(net.components)} components); variation studies "
                "sweep full-machine scenarios only")
        tables[label] = RoutingTable(net.routing())
        study = run_fault_study(
            setup, [scenario], seed=spec.seed,
            repair_restarts=spec.repair_restarts,
            full_restarts=spec.full_restarts,
        )
        gaps[label] = study.rows[0].repair_gap
    return tables, gaps


def _ci_entry(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """A ``{"mean", "lo", "hi"}`` CI entry, NaN-safe."""
    clean = [v for v in values if v is not None and math.isfinite(v)]
    if not clean:
        return {"mean": None, "lo": None, "hi": None}
    mean, lo, hi = mean_ci(clean)
    return {"mean": _nan_to_none(mean), "lo": _nan_to_none(lo),
            "hi": _nan_to_none(hi)}


def run_variation_study(
    spec: StudySpec, *, workers: WorkersLike = None,
) -> VariationStudyResult:
    """Execute every cell of the grid and return its records.

    Each cell runs ``spec.replications`` sweeps over the shared load
    ladder, each with a seed derived from the spec seed and the cell's
    coordinates, and reports per-rate mean/CI latency and throughput.
    ``workers`` fans the inner load sweeps onto a process pool; derived
    seeds make the result identical to a serial run.
    """
    setup = build_setup(spec)
    config = SimulationConfig(
        warmup_cycles=spec.warmup_cycles,
        measure_cycles=spec.measure_cycles,
        seed=spec.seed,
    )
    with _trace.span("study.run", name=spec.name, cells=spec.cells):
        mappings: List[MappingRecord] = [setup.op_mapping()]
        mappings += setup.random_mappings(spec.num_random)
        if spec.max_rate is not None:
            rates = make_load_points(spec.max_rate, n=spec.num_rates)
        else:
            rates = setup.load_ladder(config, n=spec.num_rates,
                                      op=mappings[0])
        tables, gaps = _fault_tables(spec, setup)

        records: List[VariationRecord] = []
        for mapping in mappings:
            for fault_set in spec.fault_sets:
                for engine in spec.engines:
                    records.append(_run_cell(
                        spec, mapping, fault_set, engine,
                        tables[fault_set], gaps[fault_set], rates,
                        config, workers,
                    ))
    return VariationStudyResult(spec=spec, records=records,
                                rates=list(rates))


def _run_cell(
    spec: StudySpec,
    mapping: MappingRecord,
    fault_set: str,
    engine: str,
    table: RoutingTable,
    repair_gap: Optional[float],
    rates: Sequence[float],
    config: SimulationConfig,
    workers: WorkersLike,
) -> VariationRecord:
    """Measure one grid cell under a private metrics registry."""
    name = f"{mapping.name}/{fault_set}/{engine}"
    traffic = IntraClusterTraffic(mapping.mapping)
    registry = MetricsRegistry()
    per_rate_latency: List[List[float]] = [[] for _ in rates]
    per_rate_accepted: List[List[float]] = [[] for _ in rates]
    with use_registry(registry), _trace.span("study.cell", cell=name):
        for rep in range(spec.replications):
            cfg = SimulationConfig(
                warmup_cycles=config.warmup_cycles,
                measure_cycles=config.measure_cycles,
                engine=engine,
                seed=derive_seed(spec.seed, "cell", mapping.name,
                                 fault_set, engine, rep),
            )
            points = run_load_sweep(table, traffic, rates, cfg,
                                    workers=workers)
            for i, point in enumerate(points):
                per_rate_latency[i].append(point.result.avg_latency)
                per_rate_accepted[i].append(
                    point.result.accepted_flits_per_switch_cycle)
    latency = [_ci_entry(vals) for vals in per_rate_latency]
    throughput = [_ci_entry(vals) for vals in per_rate_accepted]
    peaks = [e["mean"] for e in throughput if e["mean"] is not None]
    return VariationRecord(
        name=name,
        mapping=mapping.name,
        fault_set=fault_set,
        engine=engine,
        c_c=mapping.c_c,
        f_g=mapping.f_g,
        d_g=mapping.d_g,
        rates=[float(r) for r in rates],
        latency=latency,
        throughput=throughput,
        peak_throughput=max(peaks) if peaks else None,
        repair_gap=_nan_to_none(repair_gap),
        counters={k: v for k, v in registry.snapshot()["counters"].items()},
        replications=spec.replications,
    )


# --------------------------------------------------------------------- #
# adapters from the existing experiment drivers
# --------------------------------------------------------------------- #

def records_from_sim_figure(res: "Any", *,
                            engine: str = "figure") -> List[VariationRecord]:
    """A :class:`SimFigureResult` (Figs. 3/5) as single-rep variation records.

    One record per mapping, healthy network; with a single sweep per
    mapping the CIs collapse to the point estimate.  ``engine`` labels
    the records' engine coordinate (pass ``"fig3"``/``"fig5"`` when
    combining several figures so cell names stay unique).
    """
    records = []
    for m in res.mappings:
        points = res.sweeps[m.name]
        records.append(VariationRecord(
            name=f"{m.name}/{HEALTHY}/{engine}",
            mapping=m.name,
            fault_set=HEALTHY,
            engine=engine,
            c_c=m.c_c,
            f_g=m.f_g,
            d_g=m.d_g,
            rates=[p.rate for p in points],
            latency=[
                {"mean": _nan_to_none(p.result.avg_latency),
                 "lo": _nan_to_none(p.result.avg_latency),
                 "hi": _nan_to_none(p.result.avg_latency)}
                for p in points
            ],
            throughput=[
                {"mean": _nan_to_none(
                    p.result.accepted_flits_per_switch_cycle),
                 "lo": _nan_to_none(
                     p.result.accepted_flits_per_switch_cycle),
                 "hi": _nan_to_none(
                     p.result.accepted_flits_per_switch_cycle)}
                for p in points
            ],
            peak_throughput=_nan_to_none(
                res.saturation_throughput.get(m.name)),
            repair_gap=None,
            counters={},
            replications=1,
        ))
    return records


def records_from_fault_study(res: FaultStudyResult) -> List[VariationRecord]:
    """A :class:`FaultStudyResult` as sweep-less variation records.

    One record per scenario carrying the quality story only — healthy,
    degraded and repaired ``C_c`` plus the repair gap — with empty
    measurement arrays (the study never swept traffic).
    """
    records = []
    for row in res.rows:
        label = row.scenario.label
        records.append(VariationRecord(
            name=f"OP/{label}/faults",
            mapping="OP",
            fault_set=label,
            engine="faults",
            c_c=(row.c_c_degraded if row.c_c_degraded is not None
                 else row.c_c_before),
            f_g=0.0,
            d_g=0.0,
            rates=[],
            latency=[],
            throughput=[],
            peak_throughput=None,
            repair_gap=_nan_to_none(row.repair_gap),
            counters={},
            replications=1,
        ))
    return records


def wrap_records(
    records: Sequence[VariationRecord],
    *,
    network: str,
    name: str = "adapter",
    baseline: str = "OP",
) -> VariationStudyResult:
    """Package adapter records into a renderable study result.

    The figure and fault-study adapters hand back bare record lists;
    the renderers want a :class:`VariationStudyResult`.  The spec built
    here is synthetic scaffolding — its grid coordinates are recovered
    from the records so the report header and baseline lookup work, and
    it never drives any execution.  ``network`` names what the records
    were measured on; the header prints it in place of the spec's
    topology and seeds.
    """
    if not records:
        raise ValueError("cannot wrap an empty record list")
    mappings: List[str] = []
    fault_sets: List[str] = []
    engines: List[str] = []
    for r in records:
        if r.mapping not in mappings:
            mappings.append(r.mapping)
        if r.fault_set not in fault_sets:
            fault_sets.append(r.fault_set)
        if r.engine not in engines:
            engines.append(r.engine)
    rates = max((r.rates for r in records), key=len, default=[])
    spec = StudySpec(
        name=name,
        num_random=len(mappings) - 1,
        fault_sets=tuple(fault_sets),
        num_rates=max(2, len(rates)),
        replications=max(r.replications for r in records),
        baseline=baseline,
    )
    # Adapter records label their engine coordinate with the experiment
    # ("fig3", "faults"), not an engine name; this spec never runs, so
    # it carries those labels past the engine-name check.
    object.__setattr__(spec, "engines", tuple(engines))
    return VariationStudyResult(spec=spec, records=list(records),
                                rates=list(rates), network=network)


__all__ = [
    "HEALTHY",
    "StudySpec",
    "VariationRecord",
    "VariationStudyResult",
    "validate_variation_record",
    "build_setup",
    "run_variation_study",
    "records_from_sim_figure",
    "records_from_fault_study",
    "wrap_records",
]
