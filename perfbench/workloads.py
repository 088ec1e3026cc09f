"""The benchmark's workloads: inputs made from a seed, set-up, unit of work.

Each workload's unit of work is what :mod:`run` times.  ``prepare`` makes
the inputs that are neither timed nor part of set-up (the stream-capture
file), ``setup`` is the part timed as ``setup_s`` (trace build, capture
scan, store open: everything up to the first simulation), and ``run``
does the rest and returns every simulation outcome for checking.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import resource
from pathlib import Path

import numpy as np

from repro.common.addr import Region
from repro.common.params import MachineConfig
from repro.common.types import AccessType, LineClass
from repro.experiments.comparison import comparison_spec
from repro.experiments.runner import ExperimentSetup
from repro.experiments.spec import execute_spec
from repro.experiments.store import ResultStore
from repro.schemes.factory import FIGURE_SCHEMES, make_scheme
from repro.sim.simulator import simulate
from repro.workloads.benchmarks import build_trace, get_profile
from repro.workloads.champsim_bin import synthesize_champsim_bin
from repro.workloads.streaming import StreamingTraceSet
from repro.workloads.trace import CoreTrace, TraceSet

#: Trace scale of the two grid workloads (the harness scale of the figures).
GRID_SCALE = 0.5


@dataclasses.dataclass
class Item:
    """One simulation outcome to check: a grid point or one simulate() call."""

    key: str
    stats: object
    #: Records of the trace it simulated.
    records: int
    #: simulate() calls behind it (ASR's point is its 5-level search).
    simulations: int = 1


@dataclasses.dataclass
class Outcome:
    items: list
    #: The unit's result store, for the "nothing served from a store" check.
    store: "ResultStore | None" = None
    #: The grid's results, for the headline reductions.
    results: object = None
    #: CPU seconds the unit's worker processes used.
    child_cpu_s: float = 0.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class GridWorkload:
    """The Figures 6-8 ``comparison_spec`` grid into a fresh on-disk store."""

    def __init__(self, name: str, benchmarks: tuple, max_workers: int) -> None:
        self.name = name
        self.benchmarks = benchmarks
        self.max_workers = max_workers
        #: Worker processes whose memory and CPU time the unit includes.
        self.workers = max_workers if max_workers > 1 else 0
        self.records: dict = {}

    def prepare(self, seed: int, workdir: Path) -> None:
        # Record counts for the conservation check, outside any timing.
        config = MachineConfig.small()
        self.records = {
            benchmark: build_trace(
                get_profile(benchmark), config, GRID_SCALE, seed
            ).total_accesses()
            for benchmark in self.benchmarks
        }

    def setup(self, seed: int, workdir: Path, index: int):
        setup = ExperimentSetup(MachineConfig.small(), scale=GRID_SCALE, seed=seed)
        spec = comparison_spec(setup, self.benchmarks)
        store = ResultStore(root=workdir / f"store-{index}")
        if self.max_workers <= 1:
            # The sequential executor builds each trace on first use;
            # building them here puts that cost in set-up, where it is.
            for benchmark in self.benchmarks:
                setup.trace_for(benchmark)
        return setup, spec, store

    def run(self, state) -> Outcome:
        setup, spec, store = state
        cpu_before = _children_cpu()
        results = execute_spec(spec, setup, store=store, max_workers=self.max_workers)
        child_cpu = _children_cpu() - cpu_before
        items = []
        for point in spec.points:
            result = results.result_for(point)
            items.append(Item(
                key=f"{point.benchmark}/{point.scheme}",
                stats=result.stats,
                records=self.records[point.benchmark],
                simulations=len(setup.asr_levels) if point.scheme == "ASR" else 1,
            ))
        return Outcome(items, store=store, results=results, child_cpu_s=child_cpu)

    def expected_items(self) -> int:
        return len(self.benchmarks) * len(FIGURE_SCHEMES)


def build_replica_hot(config: MachineConfig, seed: int) -> TraceSet:
    """The REPLHEAVY shape: a replica-hit-dominated straggler.

    Core 0 sweeps a shared region twice the L1-D size with zero compute
    gaps, six phases of 10,000 reads: too big for its L1, small enough
    that every line earns a local LLC replica.  Every other core reads
    the region once in the first phase (so R-NUCA-style placement sees
    it shared), then makes 12 streaming reads per phase far beyond the
    LLC and parks at the phase barrier.  The seed draws the streaming
    addresses; the amount of work is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    phases, sweep_per_phase, stream_per_phase = 6, 10000, 12
    num_cores = config.num_cores
    replica_lines = config.l1d.lines * 2
    stream_lines = config.llc_slice.lines * num_cores * 4
    replica = Region(0, replica_lines)
    stream = Region(replica_lines, stream_lines)
    read = int(AccessType.READ)

    def core_trace(phase_parts) -> CoreTrace:
        barrier = (
            np.array([int(AccessType.BARRIER)], dtype=np.uint8),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.uint16),
        )
        parts = [part for phase in phase_parts for part in (phase, barrier)]
        return CoreTrace(*(np.concatenate(column) for column in zip(*parts)))

    sweep = replica.base + np.arange(phases * sweep_per_phase) % replica_lines
    cores = [core_trace([
        (np.full(sweep_per_phase, read, dtype=np.uint8),
         sweep[phase * sweep_per_phase:(phase + 1) * sweep_per_phase].astype(np.int64),
         np.zeros(sweep_per_phase, dtype=np.uint16))
        for phase in range(phases)
    ])]
    # Every core starts at line 0 in the same order.  The Limited-3
    # classifier tracks the first three cores to reach a line, and core 0
    # must be among them for its replicas to be created: a sweep started
    # elsewhere loses that race for some seeds.
    warm = sweep[:replica_lines].astype(np.int64)
    for _core in range(1, num_cores):
        phase_parts = []
        for phase in range(phases):
            lines = stream.base + rng.integers(stream_lines, size=stream_per_phase)
            gaps = np.full(stream_per_phase, 20, dtype=np.uint16)
            if phase == 0:
                lines = np.concatenate([warm, lines])
                gaps = np.concatenate([np.zeros(replica_lines, dtype=np.uint16), gaps])
            phase_parts.append(
                (np.full(len(lines), read, dtype=np.uint8), lines.astype(np.int64), gaps)
            )
        cores.append(core_trace(phase_parts))
    return TraceSet(
        "REPLICA-HOT", cores,
        [(replica, LineClass.SHARED_RO), (stream, LineClass.SHARED_RW)],
    )


class ReplicaHotWorkload:
    """The REPLHEAVY shape under RT-3 and VR, simulated directly."""

    name = "replica-hot"
    schemes = ("RT-3", "VR")

    workers = 0

    def __init__(self) -> None:
        self.config = MachineConfig.small()

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def setup(self, seed: int, workdir: Path, index: int) -> TraceSet:
        return build_replica_hot(self.config, seed)

    def run(self, traces: TraceSet) -> Outcome:
        records = traces.total_accesses()
        items = []
        for scheme in self.schemes:
            stats = simulate(make_scheme(scheme, self.config), traces)
            items.append(Item(f"replica-hot/{scheme}", stats, records))
        return Outcome(items)

    def expected_items(self) -> int:
        return len(self.schemes)


class StreamCaptureWorkload:
    """A binary ChampSim capture streamed straight into RT-3.

    The capture has the shape of ``benchmarks/streaming_bench.py``'s
    fixture (4 cores, 64K-line footprint, a 6-line hot set taking 95% of
    accesses, 5% writes) at 393,216 records: two decode blocks, so the
    decode thread overlaps simulation of the first while it decodes the
    second.
    """

    name = "stream-capture"
    records = 393216
    cores = 4
    workers = 0

    def __init__(self) -> None:
        self.capture: "Path | None" = None

    def prepare(self, seed: int, workdir: Path) -> None:
        self.capture = workdir / f"capture-{seed}.trace.xz"
        synthesize_champsim_bin(
            self.capture, self.records, seed=seed, footprint_lines=1 << 16,
            hot_lines=6, hot_fraction=0.95, write_fraction=0.05,
        )

    def setup(self, seed: int, workdir: Path, index: int) -> StreamingTraceSet:
        return StreamingTraceSet.from_champsim_bin(self.capture, num_cores=self.cores)

    def run(self, traces: StreamingTraceSet) -> Outcome:
        stats = simulate(make_scheme("RT-3", MachineConfig.tiny()), traces)
        return Outcome([Item("stream-capture/RT-3", stats, traces.total_records)])

    def expected_items(self) -> int:
        return 1


#: Name -> factory.  ``paper-grid`` spans private (BLACKSCHOLES) and
#: shared read-write (FLUIDANIMATE) benchmarks; ``grid-2proc`` runs the
#: BLACKSCHOLES part of it on two worker processes, so its results are
#: checked against the same expected digests.
WORKLOADS = {
    "paper-grid": lambda: GridWorkload("paper-grid", ("BLACKSCHOLES", "FLUIDANIMATE"), 1),
    "replica-hot": ReplicaHotWorkload,
    "stream-capture": StreamCaptureWorkload,
    "grid-2proc": lambda: GridWorkload("grid-2proc", ("BLACKSCHOLES",), 2),
}
