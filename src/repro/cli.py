"""Command-line interface.

``python -m repro <command>``:

- ``topology`` — generate a network (random irregular, four-rings, mesh,
  torus, hypercube), describe it, optionally save it as JSON;
- ``schedule`` — run the communication-aware scheduler on a topology
  (generated or loaded) and print the partition, quality scores and the
  comparison against random mappings;
- ``simulate``  — sweep one or more mappings through the wormhole
  simulator and print latency/throughput tables;
- ``figures``   — regenerate the paper's Figures 1–6 (text renderings);
- ``report``    — summarize a JSONL trace produced with ``--trace``
  (``--json`` for the machine-readable form), or run a declarative
  variation study (``--study spec.json``) and render it as comparative
  markdown / self-contained HTML — optionally serving the result on the
  HTTP operator console (``--serve``);
- ``serve``     — run the resident scheduling service (persistent worker
  pool, one request per job, result store; ``--wal``/``--deadline``/
  ``--heartbeat`` enable the self-healing tier; ``--console-port``
  adds the HTTP operator console: /healthz, /metrics, /status,
  /report);
- ``submit``    — send one scheduling request to a running service;
- ``status``    — print a running service's counters;
- ``chaos``     — run the deterministic fault-injection scenarios against
  a freshly started service and report the invariant verdicts.

``--trace PATH`` (global, also accepted after any execution subcommand)
records a structured JSONL trace of the run — manifest, nested spans,
events and a final metrics snapshot — without perturbing any result
(telemetry is inert by contract; see DESIGN.md).

Every command is a thin shell over the library; anything it prints can be
reproduced with a few lines of Python (see examples/).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.mapping import Partition, Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.cache import cached_routing_table
from repro.parallel import WorkersLike
from repro.routing.tables import RoutingTable
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ENGINE_NAMES
from repro.simulation.sweep import make_load_points, run_load_sweep
from repro.simulation.traffic import IntraClusterTraffic
from repro.topology.designed import (
    four_rings_topology,
    hypercube_topology,
    mesh_topology,
    torus_topology,
)
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology
from repro.util.reporting import Table


def _workers_arg(value: str) -> WorkersLike:
    """Parse ``--workers``: a worker count, or ``auto`` for CPU detection."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = auto), got {count}"
        )
    return count


def _save_json(payload: Dict[str, Any], path: str) -> None:
    """Write a ``--save`` file: indented JSON plus a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _read_json(path: str) -> Any:
    """The JSON value in ``path``; exits with one line naming the file when
    it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: cannot read JSON ({exc})")


def _build_topology(args: argparse.Namespace) -> Topology:
    if getattr(args, "load", None):
        payload = _read_json(args.load)
        try:
            return Topology.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"{args.load} does not contain a topology ({exc})")
    kind = args.kind
    if kind == "irregular":
        return random_irregular_topology(args.switches, seed=args.seed)
    if kind == "four-rings":
        return four_rings_topology()
    if kind == "mesh":
        side = int(round(args.switches ** 0.5))
        return mesh_topology(side, side)
    if kind == "torus":
        side = int(round(args.switches ** 0.5))
        return torus_topology(side, side)
    if kind == "hypercube":
        dim = max(1, args.switches.bit_length() - 1)
        return hypercube_topology(dim)
    raise SystemExit(f"unknown topology kind {kind!r}")


def cmd_topology(args: argparse.Namespace) -> int:
    """Generate/describe a network; optionally save it as JSON."""
    topo = _build_topology(args)
    print(f"name:            {topo.name}")
    print(f"switches:        {topo.num_switches}")
    print(f"hosts:           {topo.num_hosts} ({topo.hosts_per_switch}/switch)")
    print(f"links:           {topo.num_links}")
    print(f"diameter:        {topo.diameter()}")
    degs = [topo.degree(s) for s in range(topo.num_switches)]
    print(f"degree (min/max): {min(degs)}/{max(degs)}")
    if args.save:
        _save_json(topo.to_dict(), args.save)
        print(f"saved to {args.save}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    """Run the communication-aware scheduler and print the partition."""
    from repro.search.tabu import TabuSearch

    topo = _build_topology(args)
    if topo.num_switches % args.clusters != 0:
        raise SystemExit(
            f"{args.clusters} clusters do not evenly divide "
            f"{topo.num_switches} switches"
        )
    per_cluster = (topo.num_switches // args.clusters) * topo.hosts_per_switch
    workload = Workload.uniform(args.clusters, per_cluster)
    scheduler = CommunicationAwareScheduler(
        topo, search=TabuSearch(workers=args.workers)
    )
    result = scheduler.schedule(workload, seed=args.seed)

    print(f"topology: {topo.name} ({topo.num_switches} switches)")
    print(f"workload: {workload}")
    print("\nscheduled partition:")
    for i, members in enumerate(result.partition.clusters()):
        print(f"  cluster {i}: ({','.join(map(str, members))})")
    print(f"\nF_G={result.f_g:.4f}  D_G={result.d_g:.4f}  C_c={result.c_c:.4f}")

    t = Table(["mapping", "F_G", "C_c"], title="\nvs random mappings:")
    t.add_row(["scheduled", result.f_g, result.c_c])
    for s in range(args.randoms):
        r = scheduler.random_schedule(workload, seed=1000 + s)
        t.add_row([f"random-{s}", r.f_g, r.c_c])
    print(t.render())
    if args.save:
        _save_json(result.partition.to_dict(), args.save)
        print(f"\npartition saved to {args.save}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Sweep mappings through the wormhole simulator."""
    topo = _build_topology(args)
    per_cluster = (topo.num_switches // args.clusters) * topo.hosts_per_switch
    workload = Workload.uniform(args.clusters, per_cluster)
    scheduler = CommunicationAwareScheduler(topo)
    rt = cached_routing_table(scheduler.routing)
    config = SimulationConfig(
        warmup_cycles=args.warmup, measure_cycles=args.measure,
        seed=args.seed, engine=args.engine,
    )
    rates = make_load_points(args.max_rate, n=args.points)

    mappings = {"scheduled": scheduler.schedule(workload, seed=args.seed)}
    for s in range(args.randoms):
        mappings[f"random-{s}"] = scheduler.random_schedule(
            workload, seed=2000 + s
        )

    t = Table(
        ["mapping", "C_c"]
        + [f"S{i+1} acc" for i in range(len(rates))]
        + [f"S{i+1} lat" for i in range(len(rates))],
        title=f"load sweep on {topo.name} "
              f"(rates {rates[0]:.4f}..{rates[-1]:.4f} msgs/host/cycle):",
    )
    for name, res in mappings.items():
        points = run_load_sweep(rt, IntraClusterTraffic(res.mapping), rates,
                                config, workers=args.workers)
        t.add_row(
            [name, res.c_c]
            + [p.result.accepted_flits_per_switch_cycle for p in points]
            + [p.result.avg_latency for p in points],
            digits=3,
        )
    print(t.render())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Print the classical structural metrics of a topology."""
    from repro.topology import metrics as tmetrics

    topo = _build_topology(args)
    s = tmetrics.summary(topo)
    print(f"topology:          {topo.name}")
    print(f"switches / links:  {s['switches']} / {s['links']}")
    print(f"diameter:          {s['diameter']}")
    print(f"average distance:  {s['average_distance']:.3f}")
    deg = s["degree"]
    print(f"degree:            min {deg['min']:.0f} / mean {deg['mean']:.2f} "
          f"/ max {deg['max']:.0f}")
    exact = "exact" if s["bisection_exact"] else "sampled upper bound"
    print(f"bisection width:   {s['bisection_width']} ({exact})")
    print(f"edge connectivity: {s['edge_connectivity']}")
    print(f"path diversity:    {s['path_diversity']:.3f} "
          "(mean hops/resistance; 1 = tree-like)")
    return 0


def cmd_failures(args: argparse.Namespace) -> int:
    """Run the fault-injection study (single faults or sampled k-fault)."""
    from repro.core.mapping import Workload
    from repro.experiments.common import ExperimentSetup
    from repro.experiments.failures import (
        render_fault_study,
        render_repair_timing,
        run_fault_study,
    )
    from repro.faults.model import (
        FaultScenario,
        sample_fault_scenarios,
        single_link_scenarios,
        single_switch_scenarios,
    )

    topo = _build_topology(args)
    per_cluster = (topo.num_switches // args.clusters) * topo.hosts_per_switch
    scheduler = CommunicationAwareScheduler(topo)
    setup = ExperimentSetup(
        topology=topo,
        scheduler=scheduler,
        workload=Workload.uniform(args.clusters, per_cluster),
        routing_table=RoutingTable(scheduler.routing),
        seed=args.seed,
    )
    if args.faults <= 1:
        scenarios = single_link_scenarios(topo)
        if args.include_switch_faults:
            scenarios += single_switch_scenarios(topo)
    else:
        scenarios = sample_fault_scenarios(
            topo, num_faults=args.faults, count=args.samples,
            seed=args.seed, include_switches=args.include_switch_faults,
        )
    if args.limit:
        scenarios = scenarios[:args.limit]
    res = run_fault_study(setup, scenarios, seed=1, workers=args.workers,
                          checkpoint_path=args.resume)
    print(render_fault_study(res))
    timing = render_repair_timing(res)
    if timing:
        print(timing)
    if args.report:
        from repro.reporting import (
            records_from_fault_study,
            render_html,
            wrap_records,
        )

        result = wrap_records(
            records_from_fault_study(res),
            network=f"{topo.name} ({topo.num_switches} switches)",
            name=f"fault study ({topo.name})",
        )
        Path(args.report).write_text(render_html(result))
        print(f"html report written to {args.report}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling service until interrupted (``repro serve``)."""
    from repro.service import AdmissionPolicy, ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        store_ttl=args.store_ttl if args.store_ttl > 0 else None,
        admission=AdmissionPolicy(max_switches=args.max_switches),
        request_deadline=args.deadline if args.deadline > 0 else None,
        max_redispatch=args.max_redispatch,
        heartbeat_interval=args.heartbeat if args.heartbeat > 0 else None,
        wal_path=args.wal,
        console_port=args.console_port,
    )
    return run_service(config)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos scenarios and report verdicts (``repro chaos``)."""
    from repro.chaos import SCENARIOS, render_report, run_scenarios

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    try:
        results = run_scenarios(args.scenario or None, seed=args.seed,
                                workdir=args.workdir)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2,
                          sort_keys=True))
    else:
        print(render_report(results))
    return 0 if all(r.invariant_ok for r in results) else 1


def _build_request(args: argparse.Namespace):
    """Assemble the ScheduleRequest for ``repro submit``."""
    from repro.service import ProtocolError, ScheduleRequest, SimulateSpec

    if getattr(args, "request", None):
        payload = _read_json(args.request)
        try:
            return ScheduleRequest.from_dict(payload)
        except ProtocolError as exc:
            raise SystemExit(f"{args.request}: {exc}")
    topo = _build_topology(args)
    simulate = SimulateSpec() if args.simulate else None
    try:
        return ScheduleRequest.build(
            topo, clusters=args.clusters, method=args.method,
            seed=args.seed, priority=args.priority, simulate=simulate,
        )
    except ProtocolError as exc:
        raise SystemExit(str(exc))


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one request to a running service and print the reply."""
    from repro.service import ServiceClient, ServiceError

    request = _build_request(args)
    try:
        with ServiceClient(args.host, args.port,
                           timeout=args.timeout) as client:
            reply = client.submit(request, wait=not args.no_wait)
    except ConnectionRefusedError:
        raise SystemExit(
            f"no service at {args.host}:{args.port} — start one with "
            "'repro serve'"
        )
    except ServiceError as exc:
        raise SystemExit(f"request refused: {exc}")
    if args.no_wait and "ticket" in reply:
        print(f"queued; poll with: repro status --host {args.host} "
              f"--port {args.port}")
        print(f"ticket: {reply['ticket']}")
        return 0
    result = reply["result"]
    served = reply.get("served", {})
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    print(f"topology: {result['topology_name']}  method: {result['method']}  "
          f"seed: {result['seed']}")
    print(f"served:   {served.get('from', '?')}")
    degraded = result.get("degraded")
    if degraded is not None:
        print(f"degraded: scenario {degraded['scenario']} — "
              f"{'connected' if degraded['connected'] else 'partitioned'}, "
              f"{len(degraded['placements'])} placed, "
              f"{len(degraded['unplaced'])} unplaced")
    else:
        partition = Partition.from_dict(result["partition"])
        for i, members in enumerate(partition.clusters()):
            print(f"  cluster {i}: ({','.join(map(str, members))})")
        print(f"F_G={result['f_g']:.4f}  D_G={result['d_g']:.4f}  "
              f"C_c={result['c_c']:.4f}")
    if result.get("simulation"):
        t = Table(["rate", "accepted", "avg latency"],
                  title="simulated load sweep:")
        for row in result["simulation"]:
            t.add_row([row["rate"], row["accepted"], row["avg_latency"]],
                      digits=4)
        print(t.render())
    if args.save:
        Path(args.save).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"response saved to {args.save}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Print a running service's counters (``repro status``)."""
    from repro.service import ServiceClient

    try:
        with ServiceClient(args.host, args.port,
                           timeout=args.timeout) as client:
            status = client.status()
    except ConnectionRefusedError:
        raise SystemExit(f"no service at {args.host}:{args.port}")
    if args.json:
        print(json.dumps(status.to_dict(), indent=2, sort_keys=True))
        return 0
    d = status.to_dict()
    print(f"service version:  {d['package_version']}  "
          f"(uptime {d['uptime_seconds']:.1f}s)")
    print(f"requests:         {d['requests_total']}")
    s = d["served"]
    print(f"  served:         computed={s['computed']} store={s['store']} "
          f"inflight={s['inflight']}")
    print("  rejected:       "
          + " ".join(f"{k}={v}" for k, v in d["rejected"].items()))
    print(f"queue:            {d['queue_depth']}/{d['queue_capacity']} "
          f"pending, {d['inflight']} in flight")
    st = d["store"]
    print(f"store:            {st['size']} entries, {st['hits']} hits / "
          f"{st['misses']} misses")
    p = d["pool"]
    print(f"pool:             {p['workers']} workers "
          f"({'active' if p['active'] else 'idle'})")
    sup = d.get("supervisor")
    if sup is not None:
        print(f"supervisor:       {sup['restarts']} restarts, "
              f"{sup['redispatches']} redispatches, "
              f"breaker {sup['breaker']['state']}")
    if d.get("wal") is not None:
        print(f"wal:              {d['wal']['pending']} pending")
    return 0


def _study_status(result) -> dict:
    """The console ``/status`` payload for a served variation study."""
    return {
        "type": "variation_study",
        "name": result.spec.name,
        "cells": result.spec.cells,
        "rates": list(result.rates),
        "records": [r.name for r in result.records],
    }


def _study_metrics(result) -> str:
    """The per-cell counters summed, as Prometheus text exposition."""
    from repro.obs.export import render_prometheus

    counters: dict = {}
    for r in result.records:
        for key, value in r.counters.items():
            counters[key] = counters.get(key, 0) + value
    return render_prometheus(
        {"counters": counters, "gauges": {}, "histograms": {}})


def _report_study(args: argparse.Namespace) -> int:
    """Run a variation study and emit/serve its reports."""
    from repro.reporting import (
        StudySpec,
        render_html,
        render_markdown,
        run_variation_study,
        serve_console,
    )

    try:
        spec = StudySpec.load(args.study)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"{args.study}: {exc}")
    if args.baseline:
        spec = StudySpec.from_dict(
            {**spec.to_dict(), "baseline": args.baseline})
    result = run_variation_study(spec, workers=args.workers)
    markdown = render_markdown(result)
    if args.md:
        Path(args.md).write_text(markdown)
        print(f"markdown report written to {args.md}")
    if args.html:
        Path(args.html).write_text(render_html(result))
        print(f"html report written to {args.html}")
    if args.records:
        rows = [r.to_dict() for r in result.records]
        Path(args.records).write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"{len(rows)} variation records written to {args.records}")
    if args.serve:
        page = render_html(result)
        status = _study_status(result)
        metrics = _study_metrics(result)
        serve_console(
            host=args.serve_host,
            port=args.serve_port,
            metrics=lambda: metrics,
            status=lambda: status,
            report=lambda: page,
        )
        return 0
    if not (args.md or args.html or args.records):
        print(markdown, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Trace summaries and variation studies (``repro report``)."""
    if args.study:
        return _report_study(args)
    if not args.trace_file:
        raise SystemExit(
            "provide a trace file or --study SPEC (see 'repro report -h')")

    from repro.obs.report import load_trace, render_report, report_json

    try:
        data = load_trace(args.trace_file)
    except FileNotFoundError:
        raise SystemExit(f"no trace file at {args.trace_file}")
    if args.json:
        print(json.dumps(report_json(data, slowest=args.slowest),
                          indent=2, sort_keys=True))
    else:
        print(render_report(data, slowest=args.slowest))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the requested paper figures as text renderings."""
    from repro.experiments import (
        render_fig1, render_fig2, render_fig3, render_fig4, render_fig5,
        render_fig6, run_fig1, run_fig2, run_fig3, run_fig4, run_fig5,
        run_fig6,
    )

    config = SimulationConfig(
        warmup_cycles=args.warmup, measure_cycles=args.measure, seed=7,
        engine=args.engine,
    )
    wanted = set(args.fig) if args.fig else {1, 2, 3, 4, 5, 6}
    fig3_cache = None
    fig5_cache = None
    if 1 in wanted:
        print(render_fig1(run_fig1()), "\n")
    if 2 in wanted:
        print(render_fig2(run_fig2()), "\n")
    if 3 in wanted or 6 in wanted or (args.report and 5 not in wanted):
        fig3_cache = run_fig3(num_random=args.randoms, config=config,
                              workers=args.workers)
    if 3 in wanted:
        print(render_fig3(fig3_cache), "\n")
    if 4 in wanted:
        print(render_fig4(run_fig4()), "\n")
    if 5 in wanted:
        fig5_cache = run_fig5(num_random=3, config=config,
                              workers=args.workers)
        print(render_fig5(fig5_cache), "\n")
    if 6 in wanted:
        print(render_fig6(run_fig6(sim_result=fig3_cache)), "\n")
    if args.report:
        from repro.reporting import (
            records_from_sim_figure,
            render_html,
            wrap_records,
        )

        records = []
        names = []
        networks = []
        for label, res in (("fig3", fig3_cache), ("fig5", fig5_cache)):
            if res is not None:
                records += records_from_sim_figure(res, engine=label)
                names.append(f"{label} ({res.topology_name})")
                networks.append(res.topology_name)
        result = wrap_records(records, network=" + ".join(networks),
                              name=" + ".join(names))
        Path(args.report).write_text(render_html(result))
        print(f"html report written to {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    from repro import __version__
    from repro.service.protocol import SEARCH_METHODS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-aware task scheduling (Orduña et al., "
                    "ICPP 2000) — reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a structured JSONL trace of the run "
                             "(spans, events, metrics; inspect it with "
                             "'repro report PATH')")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_args(p, with_load=True):
        p.add_argument("--kind", default="irregular",
                       choices=["irregular", "four-rings", "mesh", "torus",
                                "hypercube"])
        p.add_argument("--switches", type=int, default=16)
        p.add_argument("--seed", type=int, default=42)
        if with_load:
            p.add_argument("--load", help="load a topology JSON instead")

    def add_exec_args(p):
        p.add_argument("--workers", type=_workers_arg, default=None,
                       metavar="N|auto",
                       help="process-pool width for restarts/sweep points "
                            "(default: $REPRO_WORKERS or serial; results "
                            "are identical either way)")
        # SUPPRESS: only override the root-level --trace when actually
        # given after the subcommand, so both positions work.
        p.add_argument("--trace", metavar="PATH", default=argparse.SUPPRESS,
                       help="write a structured JSONL trace of the run")

    p = sub.add_parser("topology", help="generate/describe a network")
    add_topology_args(p)
    p.add_argument("--save", help="write the topology as JSON")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("schedule", help="run the communication-aware scheduler")
    add_topology_args(p)
    add_exec_args(p)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--randoms", type=int, default=5,
                   help="random mappings to compare against")
    p.add_argument("--save", help="write the partition as JSON")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="sweep mappings through the simulator")
    add_topology_args(p)
    add_exec_args(p)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--randoms", type=int, default=2)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--max-rate", type=float, default=0.02)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--measure", type=int, default=1200)
    p.add_argument("--engine", default="fast",
                   choices=list(ENGINE_NAMES),
                   help="simulator engine ('reference'/'fast' are "
                        "bit-identical; 'vector' is the many-seed kernel "
                        "under the statistical-equivalence contract)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="classical topology metrics")
    add_topology_args(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("failures",
                       help="fault-injection study (links/switches, "
                            "repair vs reschedule)")
    add_topology_args(p)
    add_exec_args(p)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--limit", type=int, default=0,
                   help="only the first N scenarios (0 = all)")
    p.add_argument("--faults", type=int, default=1, metavar="K",
                   help="faults per scenario: 1 = exhaustive single faults, "
                        ">=2 = sampled k-fault scenarios (default: 1)")
    p.add_argument("--samples", type=int, default=10,
                   help="scenarios to sample when --faults >= 2 (default: 10)")
    p.add_argument("--include-switch-faults", action="store_true",
                   help="also fail whole switches, not just links")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="checkpoint file: record completed scenarios and "
                        "resume an interrupted study bit-identically")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the study as a self-contained HTML "
                        "report")
    p.set_defaults(func=cmd_failures)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    add_exec_args(p)
    p.add_argument("--fig", type=int, action="append",
                   choices=[1, 2, 3, 4, 5, 6],
                   help="figure number (repeatable; default: all)")
    p.add_argument("--randoms", type=int, default=9)
    p.add_argument("--warmup", type=int, default=400)
    p.add_argument("--measure", type=int, default=1500)
    p.add_argument("--engine", default="fast",
                   choices=list(ENGINE_NAMES),
                   help="simulator engine for the fig3/fig5 sweeps "
                        "('reference'/'fast' are bit-identical; 'vector' "
                        "is the many-seed kernel under the "
                        "statistical-equivalence contract)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the fig3/fig5 sweeps as a "
                        "self-contained HTML report")
    p.set_defaults(func=cmd_figures)

    def add_service_addr(p):
        from repro.service.server import DEFAULT_HOST, DEFAULT_PORT

        p.add_argument("--host", default=DEFAULT_HOST)
        p.add_argument("--port", type=int, default=DEFAULT_PORT)

    p = sub.add_parser("serve",
                       help="run the resident scheduling service")
    add_service_addr(p)
    p.add_argument("--workers", type=_workers_arg, default=None,
                   metavar="N|auto",
                   help="persistent pool width (default: $REPRO_WORKERS "
                        "or serial)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="queued-request bound before backpressure "
                        "(default: 64)")
    p.add_argument("--store-ttl", type=float, default=300.0,
                   help="result-store TTL in seconds, 0 disables expiry "
                        "(default: 300)")
    p.add_argument("--max-switches", type=int, default=256,
                   help="admission bound on topology size (default: 256)")
    p.add_argument("--wal", metavar="PATH", default=None,
                   help="journal accepted requests to PATH and replay "
                        "unfinished ones on the next start (crash safety)")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-attempt worker deadline in seconds; a wedged "
                        "job is killed, restarted and answered with a "
                        "typed error (0 disables; default: 0)")
    p.add_argument("--max-redispatch", type=int, default=2,
                   help="re-dispatches after a worker crash before the "
                        "request fails typed (default: 2)")
    p.add_argument("--heartbeat", type=float, default=0.0,
                   help="probe an idle pool every N seconds and restart it "
                        "on a missed beat (0 disables; default: 0)")
    p.add_argument("--console-port", type=int, default=None, metavar="PORT",
                   help="also serve the HTTP operator console on PORT "
                        "(/healthz, /metrics, /status, /report; 0 picks "
                        "an ephemeral port; default: off)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("chaos",
                       help="run the deterministic fault-injection "
                            "scenarios against a fresh service")
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="scenario to run (repeatable; default: all; "
                        "see --list)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed; the same seed injects the same "
                        "faults at the same points (default: 0)")
    p.add_argument("--workdir", metavar="PATH", default=None,
                   help="directory for latches/journals (default: a fresh "
                        "temp dir)")
    p.add_argument("--json", action="store_true",
                   help="print structured per-scenario results")
    p.add_argument("--list", action="store_true",
                   help="list scenario names and exit")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("submit",
                       help="submit one request to a running service")
    add_service_addr(p)
    add_topology_args(p)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--method", default="tabu",
                   choices=sorted(SEARCH_METHODS))
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority (higher runs sooner; does not "
                        "change the result)")
    p.add_argument("--simulate", action="store_true",
                   help="also sweep the mapping through the simulator")
    p.add_argument("--request", metavar="FILE",
                   help="submit a schedule_request JSON file instead of "
                        "building one from the topology flags")
    p.add_argument("--no-wait", action="store_true",
                   help="enqueue and return a ticket instead of waiting")
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("--json", action="store_true",
                   help="print the raw canonical response payload")
    p.add_argument("--save", metavar="PATH",
                   help="write the canonical response payload as JSON")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="print a running service's counters")
    add_service_addr(p)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("report",
                       help="summarize a trace, or run a variation study "
                            "and render/serve its reports")
    p.add_argument("trace_file", nargs="?", default=None,
                   help="trace written by --trace PATH")
    p.add_argument("--slowest", type=int, default=10,
                   help="how many of the slowest spans to list (default: 10)")
    p.add_argument("--json", action="store_true",
                   help="print the trace report as one machine-readable "
                        "JSON document instead of text")
    p.add_argument("--study", metavar="SPEC", default=None,
                   help="run the variation study described by a "
                        "variation_study_spec JSON file instead of "
                        "summarizing a trace")
    p.add_argument("--md", metavar="PATH", default=None,
                   help="write the study's comparative markdown report")
    p.add_argument("--html", metavar="PATH", default=None,
                   help="write the study as one self-contained HTML file")
    p.add_argument("--records", metavar="PATH", default=None,
                   help="write the study's variation records as JSON")
    p.add_argument("--baseline", metavar="NAME", default=None,
                   help="override the spec's baseline mapping for deltas "
                        "and regression flags")
    p.add_argument("--workers", type=_workers_arg, default=None,
                   metavar="N|auto",
                   help="fan the study's load sweeps onto a process pool "
                        "(results are identical either way)")
    p.add_argument("--serve", action="store_true",
                   help="after the study, serve the report on the operator "
                        "console until interrupted")
    p.add_argument("--host", dest="serve_host", default="127.0.0.1",
                   help="console bind address for --serve "
                        "(default: 127.0.0.1)")
    p.add_argument("--port", dest="serve_port", type=int, default=8080,
                   help="console port for --serve (default: 8080)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    With ``--trace PATH`` the whole command executes inside
    :func:`repro.obs.run.trace_run`: the manifest (command, seed, engine,
    workers, versions) is the file's first record and the final metrics
    snapshot its last.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path and args.command != "report":
        from repro.obs import collect_manifest, trace_run

        manifest = collect_manifest(
            args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            seed=getattr(args, "seed", None),
            engine=getattr(args, "engine", None),
            workers=getattr(args, "workers", None),
        )
        with trace_run(trace_path, manifest=manifest):
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
