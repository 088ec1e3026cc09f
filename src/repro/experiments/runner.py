"""Experiment runner: (scheme × benchmark × parameters) → statistics.

This is the layer every figure module builds on.  It owns:

* trace construction (one deterministic trace per benchmark/seed,
  memoized so a seven-scheme comparison reuses the same access streams);
* the ASR replication-level search (Section 3.3: run the five discrete
  levels and keep the lowest energy-delay product);
* the per-scheme energy model (the locality scheme charges its extended
  directory at 1.2×).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.common.params import MachineConfig
from repro.schemes.asr import ASRScheme
from repro.schemes.factory import make_scheme
from repro.sim.simulator import simulate
from repro.sim.stats import SimStats
from repro.workloads.benchmarks import BENCHMARK_ORDER, build_trace, get_profile
from repro.workloads.imports import imported_trace_path, is_imported_benchmark
from repro.workloads.io import load_trace_set
from repro.workloads.streaming import StreamingTraceSet, stream_threshold_bytes
from repro.workloads.trace import TraceSet


@dataclasses.dataclass
class RunResult:
    """One simulation outcome, with the scheme's own energy accounting."""

    scheme: str
    benchmark: str
    stats: SimStats
    energy_breakdown: dict[str, float]
    #: The ASR replication level chosen, when applicable.
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
    #: Simulation kernel name (None → REPRO_SIM_KERNEL env var → "fast").
    #: Both kernels are differentially verified bit-identical, so this
    #: only trades speed, never results.
    kernel: str | None = None

    def __post_init__(self) -> None:
        self._trace_cache: dict[str, TraceSet] = {}

    def trace_for(self, benchmark: str) -> TraceSet:
        """The benchmark's trace set (memoized per setup).

        Catalog names build a synthetic trace from the profile; an
        ``imported:<path>`` name loads the ``.npz`` archive at that path
        instead (the setup's ``scale``/``seed`` do not apply — an
        imported capture is fixed data).  The simulator still checks
        that the trace's core count matches this setup's machine.

        Large imported archives stream: when the archive file exceeds
        ``REPRO_STREAM_THRESHOLD`` bytes (default 64 MiB; ``0`` streams
        everything, negative never streams) the loaded set is wrapped in
        a :class:`~repro.workloads.streaming.StreamingTraceSet`, so the
        simulator runs it chunk-by-chunk in bounded memory.  Streamed
        and materialized runs are bit-identical by construction.
        """
        trace = self._trace_cache.get(benchmark)
        if trace is None:
            if is_imported_benchmark(benchmark):
                path = imported_trace_path(benchmark)
                trace = load_trace_set(path)
                threshold = stream_threshold_bytes()
                if threshold >= 0 and path.stat().st_size >= threshold:
                    trace = StreamingTraceSet.from_trace_set(trace)
            else:
                trace = build_trace(
                    get_profile(benchmark), self.config, self.scale, self.seed
                )
            self._trace_cache[benchmark] = trace
        return trace

    def release_decoded(self, benchmark: str) -> None:
        """Free ``benchmark``'s decoded hot-loop views (kept: the TraceSet).

        Experiment loops call this after finishing a benchmark's batch of
        runs: the fast kernel's decoded views are boxed-Python copies of
        the trace arrays, pure dead weight once the batch is done.
        """
        trace = self._trace_cache.get(benchmark)
        if trace is not None:
            trace.release_decoded()

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
    kernel: str | None = None,
    **scheme_kwargs,
) -> RunResult:
    """Run one (scheme, benchmark) pair.

    ``ASR`` triggers the replication-level search automatically.  An
    explicit ``config`` overrides the setup's machine (used by sweeps
    that vary classifier k or cluster size); an explicit ``kernel``
    overrides the setup's simulation kernel for this run only.
    """
    machine_config = config or setup.config
    if scheme_label == "ASR" and "replication_level" not in scheme_kwargs:
        return run_asr_best(setup, benchmark, machine_config, kernel=kernel)
    traces = setup.trace_for(benchmark)
    engine = make_scheme(scheme_label, machine_config, **scheme_kwargs)
    stats = simulate(engine, traces, kernel=kernel if kernel is not None else setup.kernel)
    breakdown = stats.energy_breakdown(engine.energy_model())
    return RunResult(scheme_label, benchmark, stats, breakdown)


def run_asr_best(
    setup: ExperimentSetup,
    benchmark: str,
    config: MachineConfig | None = None,
    kernel: str | None = None,
) -> RunResult:
    """ASR at the five replication levels; keep the lowest-EDP level."""
    machine_config = config or setup.config
    traces = setup.trace_for(benchmark)
    best: RunResult | None = None
    best_edp = float("inf")
    for level in setup.asr_levels:
        engine = make_scheme("ASR", machine_config, replication_level=level)
        stats = simulate(engine, traces, kernel=kernel if kernel is not None else setup.kernel)
        breakdown = stats.energy_breakdown(engine.energy_model())
        energy = sum(breakdown.values())
        edp = energy * stats.completion_time
        if edp < best_edp:
            best_edp = edp
            best = RunResult("ASR", benchmark, stats, breakdown, asr_level=level)
    assert best is not None
    return best


def run_matrix(
    setup: ExperimentSetup,
    schemes: Iterable[str],
    benchmarks: Iterable[str] | None = None,
):
    """Run every (benchmark, scheme) combination.

    Returns a :class:`~repro.experiments.results.ResultSet`, readable as
    the legacy ``results[benchmark][scheme]`` mapping.  Implemented as an
    anonymous :class:`~repro.experiments.spec.ExperimentSpec` so the
    executor owns trace release and per-invocation deduplication.
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
