"""Figure 3: simulation results for the 16-switch network.

Latency-vs-accepted-traffic curves for the mapping produced by the
scheduling technique (label "OP") against randomly generated mappings
(labels "R_i"), each annotated with its clustering coefficient, over the
load points S1…S9.  Shape claims: the OP mapping saturates at markedly
higher accepted traffic (the paper reports ≈85 % higher than any random
mapping), and ``C_c`` is visibly larger for OP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentSetup,
    MappingRecord,
    paper_16switch_setup,
)
from repro.obs import trace as _trace
from repro.parallel import WorkersLike
from repro.simulation.config import SimulationConfig
from repro.simulation.sweep import LoadPoint
from repro.util.asciiplot import line_plot
from repro.util.reporting import Table


@dataclass
class SimFigureResult:
    """Sweep data for one network (used by Figs. 3 and 5)."""

    figure: str
    topology_name: str
    mappings: List[MappingRecord]
    rates: List[float]
    sweeps: Dict[str, List[LoadPoint]]          # mapping name -> S1..S9
    saturation_throughput: Dict[str, float]     # mapping name -> flits/sw/cycle

    @property
    def op_record(self) -> MappingRecord:
        return next(m for m in self.mappings if m.name == "OP")

    @property
    def random_records(self) -> List[MappingRecord]:
        return [m for m in self.mappings if m.name != "OP"]

    @property
    def op_over_best_random(self) -> float:
        """Saturation-throughput ratio OP / best random mapping."""
        best_random = max(
            self.saturation_throughput[m.name] for m in self.random_records
        )
        return self.saturation_throughput["OP"] / best_random


def default_sim_config(seed: int = 7) -> SimulationConfig:
    """The evaluation configuration shared by Figures 3, 5 and 6."""
    return SimulationConfig(
        message_length=16,
        buffer_flits=2,
        warmup_cycles=600,
        measure_cycles=2500,
        seed=seed,
    )


def run_sim_figure(
    figure: str,
    setup: ExperimentSetup,
    *,
    num_random: int,
    config: Optional[SimulationConfig] = None,
    num_points: int = 9,
    workers: WorkersLike = None,
) -> SimFigureResult:
    """Shared driver for the Figure 3 / Figure 5 experiments.

    ``workers`` fans the per-mapping load sweeps and saturation probes out
    onto a process pool; every simulation's seed is derived from the
    mapping name and sweep-point index alone, so the result is identical
    to a serial run.
    """
    config = config or default_sim_config()
    with _trace.span(f"figure.{figure}", topology=setup.topology.name,
                     num_random=num_random, engine=config.engine):
        op = setup.op_mapping()
        randoms = setup.random_mappings(num_random)
        mappings = [op] + randoms

        rates = setup.load_ladder(config, n=num_points, op=op)
        sweeps = {}
        for m in mappings:
            with _trace.span("figure.sweep", mapping=m.name, c_c=m.c_c):
                sweeps[m.name] = setup.sweep(m, rates, config,
                                             workers=workers)
        # Throughput = best accepted traffic observed anywhere: the
        # dedicated deep-saturation probe can land past the knee where
        # accepted dips slightly (tree saturation), so fold in the ladder
        # maximum.
        probes = setup.saturation_throughputs(mappings, config,
                                              workers=workers)
        throughput = {}
        for m in mappings:
            ladder_max = max(
                p.result.accepted_flits_per_switch_cycle
                for p in sweeps[m.name]
            )
            throughput[m.name] = max(probes[m.name], ladder_max)
            _trace.event("figure.mapping", figure=figure, mapping=m.name,
                         c_c=m.c_c, throughput=throughput[m.name])
    return SimFigureResult(
        figure=figure,
        topology_name=setup.topology.name,
        mappings=mappings,
        rates=rates,
        sweeps=sweeps,
        saturation_throughput=throughput,
    )


def run_fig3(
    setup: Optional[ExperimentSetup] = None,
    *,
    num_random: int = 9,
    config: Optional[SimulationConfig] = None,
    workers: WorkersLike = None,
) -> SimFigureResult:
    """The paper's Figure 3: 16-switch network, OP vs 9 random mappings."""
    setup = setup or paper_16switch_setup()
    return run_sim_figure("Figure 3", setup, num_random=num_random,
                          config=config, workers=workers)


def render_sim_figure(res: SimFigureResult) -> str:
    """Accepted-traffic and latency tables plus the latency/traffic chart."""
    lines = [f"{res.figure} - simulation results, {res.topology_name}"]
    t = Table(["mapping", "C_c"] + [f"S{i+1} acc" for i in range(len(res.rates))]
              + ["sat. throughput"])
    for m in res.mappings:
        points = res.sweeps[m.name]
        t.add_row(
            [m.name, m.c_c]
            + [p.result.accepted_flits_per_switch_cycle for p in points]
            + [res.saturation_throughput[m.name]],
            digits=3,
        )
    lines.append(t.render())

    lt = Table(["mapping"] + [f"S{i+1} lat" for i in range(len(res.rates))],
               title="average message latency (cycles)")
    for m in res.mappings:
        points = res.sweeps[m.name]
        lt.add_row([m.name] + [p.result.avg_latency for p in points], digits=4)
    lines.append(lt.render())

    # The paper's plot: latency vs accepted traffic per mapping.  Cap the
    # random series shown to keep the chart readable; the tables above
    # carry the full data.
    shown = [res.op_record] + res.random_records[:4]
    series = {}
    for m in shown:
        pts = res.sweeps[m.name]
        series[f"{m.name} (C_c={m.c_c:.2f})"] = (
            [p.result.accepted_flits_per_switch_cycle for p in pts],
            [p.result.avg_latency for p in pts],
        )
    lines.append(line_plot(
        series, width=66, height=16,
        x_label="accepted traffic (flits/switch/cycle)",
        y_label="average latency (cycles)",
        y_log=True,
    ))
    lines.append(
        f"OP saturation throughput / best random: {res.op_over_best_random:.2f}x"
    )
    return "\n\n".join(lines)


def render_fig3(res: SimFigureResult) -> str:
    """Figure 3 as text tables + chart."""
    return render_sim_figure(res)


__all__ = [
    "SimFigureResult",
    "default_sim_config",
    "run_sim_figure",
    "run_fig3",
    "render_fig3",
    "render_sim_figure",
]
