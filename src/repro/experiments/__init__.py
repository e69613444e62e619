"""Per-figure experiment drivers.

Each module regenerates one figure of the paper's evaluation section as
structured data plus a text rendering (the benchmark harness prints these):

- :mod:`~repro.experiments.fig1_tabu_trace` — Figure 1, the ``F(P_i)``
  trace of the Tabu search on a 16-switch network;
- :mod:`~repro.experiments.fig2_partition16` — Figure 2, the 4-cluster
  partition found for the 16-switch network;
- :mod:`~repro.experiments.fig3_sim16` — Figure 3, latency/traffic curves
  for the OP and random mappings on the 16-switch network;
- :mod:`~repro.experiments.fig4_partition24` — Figure 4, the partition of
  the specially designed 24-switch network;
- :mod:`~repro.experiments.fig5_sim24` — Figure 5, simulation of the
  24-switch network;
- :mod:`~repro.experiments.fig6_correlation` — Figure 6, correlation of
  the clustering coefficient with network performance per load point.

:mod:`~repro.experiments.common` holds the shared setup (the paper's
16-switch and 24-switch networks, mapping generation, sweep execution).
"""

from repro.experiments.common import (
    ExperimentSetup,
    MappingRecord,
    paper_16switch_setup,
    paper_24switch_setup,
)
from repro.experiments.fig1_tabu_trace import run_fig1, render_fig1, Fig1Result
from repro.experiments.fig2_partition16 import run_fig2, render_fig2, PartitionResult
from repro.experiments.fig3_sim16 import run_fig3, render_fig3, SimFigureResult
from repro.experiments.fig4_partition24 import run_fig4, render_fig4
from repro.experiments.fig5_sim24 import run_fig5, render_fig5
from repro.experiments.fig6_correlation import run_fig6, render_fig6, Fig6Result
from repro.experiments.survey import run_survey, render_survey, SurveyResult

__all__ = [
    "ExperimentSetup",
    "MappingRecord",
    "paper_16switch_setup",
    "paper_24switch_setup",
    "run_fig1", "render_fig1", "Fig1Result",
    "run_fig2", "render_fig2", "PartitionResult",
    "run_fig3", "render_fig3", "SimFigureResult",
    "run_fig4", "render_fig4",
    "run_fig5", "render_fig5",
    "run_fig6", "render_fig6", "Fig6Result",
    "run_survey", "render_survey", "SurveyResult",
]
