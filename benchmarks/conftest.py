"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures at a
reduced scale (small machine, shortened traces, benchmark subsets) so
the whole suite completes in minutes; the ``python -m repro experiments``
CLI regenerates everything at any scale.  Benchmarks print the rendered
table so ``pytest benchmarks/ --benchmark-only -s`` reproduces the
paper's rows verbatim.
"""

from __future__ import annotations

import pytest

from repro.common.params import MachineConfig
from repro.experiments.comparison import run_comparison
from repro.experiments.runner import ExperimentSetup

#: A representative benchmark subset spanning the paper's behaviour
#: classes: shared-RW reuse, private-heavy, migratory, LLC pressure,
#: shared-RO reuse, false sharing.
SUBSET = ("BARNES", "DEDUP", "LU-NC", "FLUIDANIMATE", "STREAMCLUSTER",
          "BLACKSCHOLES")

#: Benchmark scale for matrix regeneration (fraction of default traces).
#: 0.5 is the smallest scale at which the paper's reuse dynamics fully
#: manifest (RT-3 promotion needs enough sweeps over the working sets).
BENCH_SCALE = 0.5


@pytest.fixture(scope="session")
def setup() -> ExperimentSetup:
    return ExperimentSetup(MachineConfig.small(), scale=BENCH_SCALE, seed=1)


@pytest.fixture(scope="session")
def comparison_results(setup):
    """The seven-scheme Figures 6-8 grid over :data:`SUBSET`, simulated
    once per session: the headline summary and all three figures read
    the same runs, exactly as in the paper."""
    return run_comparison(setup, benchmarks=SUBSET)
