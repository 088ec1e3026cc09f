"""Experiment runner: (scheme × benchmark × parameters) → statistics.

This is the layer every figure module builds on.  It owns:

* :class:`RunResult`, one simulation's statistics with the scheme's own
  energy accounting (the locality scheme charges its extended directory
  at 1.2×);
* :class:`ExperimentSetup` and its trace construction (one
  deterministic trace per benchmark/seed, memoized so a seven-scheme
  comparison reuses the same access streams);
* :func:`run_one` and :func:`run_matrix`, which run one point or a
  (benchmark × scheme) matrix through
  :func:`~repro.experiments.spec.execute_spec`.  That executor owns the
  ASR replication-level search (Section 3.3: run the five discrete
  levels and keep the lowest energy-delay product).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.common.params import MachineConfig
from repro.schemes.asr import ASRScheme
from repro.sim.stats import SimStats
from repro.workloads.benchmarks import BENCHMARK_ORDER, build_trace, get_profile
from repro.workloads.imports import imported_trace_path, is_imported_benchmark
from repro.workloads.io import load_trace_set
from repro.workloads.trace import TraceSet


@dataclasses.dataclass
class RunResult:
    """One simulation outcome, with the scheme's own energy accounting."""

    scheme: str
    benchmark: str
    stats: SimStats
    energy_breakdown: dict[str, float]
    #: The ASR replication level run (searched or explicit), else None.
    asr_level: float | None = None

    @property
    def total_energy(self) -> float:
        return sum(self.energy_breakdown.values())

    @property
    def completion_time(self) -> float:
        return self.stats.completion_time


@dataclasses.dataclass
class ExperimentSetup:
    """Shared parameters for a batch of runs."""

    config: MachineConfig
    scale: float = 1.0
    seed: int = 1
    asr_levels: tuple[float, ...] = ASRScheme.LEVELS

    def __post_init__(self) -> None:
        self._trace_cache: dict[str, TraceSet] = {}

    def trace_for(self, benchmark: str) -> TraceSet:
        """The benchmark's trace set (memoized per setup).

        Catalog names build a synthetic trace from the profile; an
        ``imported:<path>`` name loads the ``.npz`` archive at that path
        instead (the setup's ``scale``/``seed`` do not apply — an
        imported capture is fixed data).  The simulator still checks
        that the trace's core count matches this setup's machine.

        Either way the result is a plain :class:`TraceSet`; the event
        loop pulls it in bounded windows, so the boxed working set of a
        large archive is one chunk per core.
        """
        trace = self._trace_cache.get(benchmark)
        if trace is None:
            if is_imported_benchmark(benchmark):
                trace = load_trace_set(imported_trace_path(benchmark))
            else:
                trace = build_trace(
                    get_profile(benchmark), self.config, self.scale, self.seed
                )
            self._trace_cache[benchmark] = trace
        return trace

    @classmethod
    def small(cls, scale: float = 1.0, seed: int = 1, **config_overrides) -> "ExperimentSetup":
        return cls(MachineConfig.small(**config_overrides), scale=scale, seed=seed)

    @classmethod
    def paper(cls, scale: float = 1.0, seed: int = 1, **config_overrides) -> "ExperimentSetup":
        return cls(MachineConfig.paper(**config_overrides), scale=scale, seed=seed)


def run_one(
    setup: ExperimentSetup,
    scheme_label: str,
    benchmark: str,
    config: MachineConfig | None = None,
    **scheme_kwargs,
) -> RunResult:
    """Run one (scheme, benchmark) pair as a one-point spec.

    ``ASR`` searches the setup's replication levels; with an explicit
    ``replication_level`` it runs that level and reports it as
    ``asr_level``.  An explicit ``config`` overrides the setup's machine
    (used by sweeps that vary classifier k or cluster size); the trace
    is still the setup's.
    """
    from repro.experiments.spec import ExperimentSpec, RunPoint, execute_spec

    overrides = {}
    if config is not None:
        overrides = {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if getattr(config, field.name) != getattr(setup.config, field.name)
        }
    point = RunPoint(
        scheme_label, benchmark,
        config_overrides=overrides, scheme_kwargs=scheme_kwargs,
    )
    return execute_spec(ExperimentSpec("run_one", (point,)), setup).result_for(point)


def run_matrix(
    setup: ExperimentSetup,
    schemes: Iterable[str],
    benchmarks: Iterable[str] | None = None,
):
    """Run every (benchmark, scheme) combination.

    Returns a :class:`~repro.experiments.results.ResultSet`, readable as
    the legacy ``results[benchmark][scheme]`` mapping.  Implemented as an
    anonymous :class:`~repro.experiments.spec.ExperimentSpec` so the
    executor owns per-invocation deduplication.
    """
    from repro.experiments.spec import ExperimentSpec, RunPoint, execute_spec

    bench_list = list(benchmarks) if benchmarks is not None else list(BENCHMARK_ORDER)
    scheme_list = list(schemes)
    points = tuple(
        RunPoint(scheme=scheme, benchmark=benchmark)
        for benchmark in bench_list
        for scheme in scheme_list
    )
    return execute_spec(ExperimentSpec("matrix", points), setup)
