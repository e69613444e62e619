"""Shared utilities: seeded RNG handling, statistics, validation, reporting.

These helpers are deliberately free of any domain knowledge so that every
substrate package (topology, routing, distance, simulation, ...) can depend
on them without creating import cycles.
"""

from repro.util.rng import as_rng, spawn_rngs, derive_seed
from repro.util.stats import (
    pearson,
    summarize,
    RunningStats,
)
from repro.util.validation import (
    check_positive,
    check_in_range,
    check_probability,
    check_square_matrix,
)
from repro.util.reporting import Table, format_float
from repro.util.asciiplot import line_plot, bar_chart

__all__ = [
    "as_rng",
    "spawn_rngs",
    "derive_seed",
    "pearson",
    "summarize",
    "RunningStats",
    "check_positive",
    "check_in_range",
    "check_probability",
    "check_square_matrix",
    "Table",
    "format_float",
    "line_plot",
    "bar_chart",
]
