"""Shared fixtures for the reporting suite: one tiny executed study.

The study grid is the smallest one that still exercises every axis —
3 mappings x 2 fault sets x 2 engines = 12 cells — over a 2-point load
ladder with 2 replications of very short simulations, so the whole
suite stays in the sub-second range per module.
"""

from __future__ import annotations

import pytest

from repro.reporting import StudySpec, run_variation_study

TINY_SPEC_KWARGS = dict(
    name="tiny",
    topology="random",
    switches=8,
    topology_seed=7,
    clusters=2,
    seed=5,
    num_random=2,
    engines=("fast", "reference"),
    fault_sets=("healthy", "link-0"),
    num_rates=2,
    max_rate=0.02,
    replications=2,
    warmup_cycles=100,
    measure_cycles=300,
)


@pytest.fixture(scope="session")
def tiny_spec() -> StudySpec:
    return StudySpec(**TINY_SPEC_KWARGS)


@pytest.fixture(scope="session")
def tiny_study(tiny_spec):
    """The tiny spec, executed once for the whole session."""
    return run_variation_study(tiny_spec)
