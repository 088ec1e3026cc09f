"""Engine micro-benchmarks: simulated accesses per second per scheme.

These measure the *simulator's* throughput (not the modelled machine),
which is what a user extending the library cares about when sizing
experiments.  Three workload regimes are measured:

* ``WATER-NSQ`` at reduced scale — miss-heavy, dominated by the protocol
  engine (directory, mesh, DRAM models);
* ``HOTLOOP`` — an L1-resident loop where ~95% of accesses hit and all
  cores progress in lockstep; the event loop itself is the throughput
  ceiling and the fast kernel's hoisting pays (≥2× over reference is
  asserted here);
* ``RUNHEAVY`` — a load-imbalanced trace where one hit-heavy core runs
  long same-core L1-hit runs while the other cores stream and park at
  barriers.  This is the regime the batched kernel targets: whole runs
  are serviced per scheduler entry, and ≥1.3× over the *fast* kernel is
  asserted here;
* ``REPLHEAVY`` — the same load-imbalanced shape, but the straggler's
  working set overflows its L1 and is *shared*, so under the
  locality-aware scheme most of its accesses are serviced by local LLC
  replicas.  This is the paper's headline regime and the target of the
  batched kernel's local-replica fast path: replica hits batch like L1
  hits instead of single-stepping the miss path, and ≥1.3× over the
  *fast* kernel is asserted here.

The ``RUNHEAVY`` regime is also the vector kernel's acceptance gate:
its long zero-gap hit runs are serviced array-at-a-time (one numpy
span commit instead of tens of thousands of scheduler entries), and
≥10× over the *reference* kernel is asserted here.  The other regimes
cannot reach 10× by construction — ``HOTLOOP``'s lockstep scheduling
caps every span at a handful of records, and ``REPLHEAVY``'s replica
hits delegate to the batched closure's sequential LRU churn — so, as
with the batched gate, the vector floor is asserted only where the
kernel's design target lies; everywhere else the differential tests
pin bit-identity and ``choose_kernel`` is asserted to pick vector only
where it wins.

Every regime is measured under all four kernels so the uploaded
benchmark JSON tracks each kernel separately.

The four speedup gates assert wall-clock ratios, which a loaded or
throttled host can miss, so they carry the ``wallclock`` marker: the
default run deselects them (``pytest.ini``) and ``-m wallclock`` runs
them.
"""

import os
import time

import numpy as np
import pytest

#: Minimum fast/reference speedup asserted by the kernel gate.  Defaults
#: to the 2x acceptance bar (locally measured ~3x); noisy shared CI
#: runners can relax it via the environment without losing the gate.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_KERNEL_SPEEDUP_MIN", "2.0"))

#: Minimum batched/fast speedup on the run-heavy regime (locally ~1.5x).
BATCHED_SPEEDUP_FLOOR = float(os.environ.get("REPRO_BATCHED_SPEEDUP_MIN", "1.3"))

#: Minimum vector/reference speedup on the run-heavy regime (locally
#: ~10-14x; noisy shared CI runners relax it via the environment).
VECTOR_SPEEDUP_FLOOR = float(os.environ.get("REPRO_VECTOR_SPEEDUP_MIN", "10.0"))

from repro.common.addr import Region
from repro.common.params import MachineConfig
from repro.common.types import AccessType, LineClass
from repro.schemes.factory import make_scheme
from repro.sim.kernel import choose_kernel, kernel_names
from repro.sim.simulator import simulate
from repro.workloads.benchmarks import BenchmarkProfile, build_trace, get_profile
from repro.workloads.trace import CoreTrace, TraceSet

KERNELS = tuple(kernel_names())  # ("reference", "fast", "batched", "vector")

#: L1-resident loop: the hit-heavy regime where loop overhead dominates.
HOTLOOP_PROFILE = BenchmarkProfile(
    name="HOTLOOP",
    description="L1-resident loop mix exercising the simulator hot path",
    f_ifetch=0.15,
    f_private=0.70,
    f_shared_ro=0.10,
    f_shared_rw=0.05,
    instr_ws_x_l1i=0.3,
    private_ws_x_l1d=0.4,
    shared_ro_ws_x_l1d=0.3,
    shared_rw_ws_x_l1d=0.3,
    private_burst=10,
    write_frac_rw=0.02,
    mean_gap=1.0,
    accesses_per_core=20000,
    barriers=2,
)


def build_runheavy_traces(
    config: MachineConfig,
    phases: int = 6,
    hit_per_phase: int = 10000,
    stream_per_phase: int = 12,
) -> TraceSet:
    """Load-imbalanced trace with long same-core L1-hit runs.

    Core 0 sweeps an L1-resident region with zero compute gaps (pure
    hit bursts); every other core issues a handful of streaming accesses
    over a region far beyond the LLC and parks at the phase barrier.
    Once the streamers park, core 0 runs the rest of its phase with an
    empty ready heap — the longest possible scheduling runs, which is
    exactly where the batched kernel's run servicing pays.
    """
    num_cores = config.num_cores
    hit_lines = max(4, config.l1d.lines // 2)
    stream_lines = config.llc_slice.lines * num_cores * 4
    hit_region = Region(0, hit_lines)
    stream_region = Region(hit_lines, stream_lines)
    regions = [(hit_region, LineClass.PRIVATE), (stream_region, LineClass.SHARED_RW)]
    barrier = np.uint8(AccessType.BARRIER)

    def phased(types, lines, gaps, per_phase):
        chunks = []
        for phase in range(phases):
            start = phase * per_phase
            chunks.append((types[start:start + per_phase],
                           lines[start:start + per_phase],
                           gaps[start:start + per_phase]))
        out_types = np.concatenate(
            [part for t, _l, _g in chunks for part in (t, np.full(1, barrier))]
        )
        out_lines = np.concatenate(
            [part for _t, l, _g in chunks
             for part in (l, np.zeros(1, dtype=np.int64))]
        )
        out_gaps = np.concatenate(
            [part for _t, _l, g in chunks
             for part in (g, np.zeros(1, dtype=np.uint16))]
        )
        return CoreTrace(out_types, out_lines, out_gaps)

    cores = []
    total_hits = phases * hit_per_phase
    offsets = np.arange(total_hits) % hit_lines
    cores.append(phased(
        np.full(total_hits, int(AccessType.READ), dtype=np.uint8),
        (hit_region.base + offsets).astype(np.int64),
        np.zeros(total_hits, dtype=np.uint16),
        hit_per_phase,
    ))
    total_stream = phases * stream_per_phase
    for core in range(1, num_cores):
        offsets = (np.arange(total_stream) * 7 + core * 1013) % stream_lines
        cores.append(phased(
            np.full(total_stream, int(AccessType.READ), dtype=np.uint8),
            (stream_region.base + offsets).astype(np.int64),
            np.full(total_stream, 20, dtype=np.uint16),
            stream_per_phase,
        ))
    return TraceSet("RUNHEAVY", cores, regions)


def build_replheavy_traces(
    config: MachineConfig,
    phases: int = 6,
    hit_per_phase: int = 10000,
    stream_per_phase: int = 12,
    ws_x_l1d: float = 2.0,
) -> TraceSet:
    """Load-imbalanced trace whose straggler is replica-hit-dominated.

    Core 0 sweeps a *shared* region twice the L1-D capacity with zero
    compute gaps: too big to live in the L1, small enough that (under
    the locality-aware scheme) every line earns a local replica, so in
    steady state each access is either an L1 hit or a local-replica hit
    with a local victim merge — exactly the constant-latency run the
    replica fast path batches.  Every other core makes one pass over the
    region in the first phase (marking its pages shared, so R-NUCA
    distributes the homes and replicas actually help), then streams far
    beyond the LLC and parks at the phase barrier, leaving core 0 the
    longest possible scheduling runs.
    """
    num_cores = config.num_cores
    replica_lines = max(8, round(config.l1d.lines * ws_x_l1d))
    stream_lines = config.llc_slice.lines * num_cores * 4
    replica_region = Region(0, replica_lines)
    stream_region = Region(replica_lines, stream_lines)
    regions = [
        (replica_region, LineClass.SHARED_RO),
        (stream_region, LineClass.SHARED_RW),
    ]
    barrier = np.uint8(AccessType.BARRIER)

    def with_barriers(chunks):
        out_types = np.concatenate(
            [part for t, _l, _g in chunks for part in (t, np.full(1, barrier))]
        )
        out_lines = np.concatenate(
            [part for _t, l, _g in chunks
             for part in (l, np.zeros(1, dtype=np.int64))]
        )
        out_gaps = np.concatenate(
            [part for _t, _l, g in chunks
             for part in (g, np.zeros(1, dtype=np.uint16))]
        )
        return CoreTrace(out_types, out_lines, out_gaps)

    cores = []
    sweep = np.arange(hit_per_phase) % replica_lines
    cores.append(with_barriers([
        (np.full(hit_per_phase, int(AccessType.READ), dtype=np.uint8),
         (replica_region.base + sweep).astype(np.int64),
         np.zeros(hit_per_phase, dtype=np.uint16))
        for _phase in range(phases)
    ]))
    warm = np.arange(replica_lines)
    for core in range(1, num_cores):
        chunks = []
        for phase in range(phases):
            offsets = (
                (np.arange(stream_per_phase) * 7 + core * 1013
                 + phase * stream_per_phase * 7) % stream_lines
            )
            types = np.full(stream_per_phase, int(AccessType.READ), dtype=np.uint8)
            lines = (stream_region.base + offsets).astype(np.int64)
            gaps = np.full(stream_per_phase, 20, dtype=np.uint16)
            if phase == 0:
                # One shared pass over the replica region: R-NUCA sees
                # multiple touchers and spreads the homes.
                types = np.concatenate([
                    np.full(replica_lines, int(AccessType.READ), dtype=np.uint8),
                    types,
                ])
                lines = np.concatenate([
                    (replica_region.base + warm).astype(np.int64), lines,
                ])
                gaps = np.concatenate([
                    np.zeros(replica_lines, dtype=np.uint16), gaps,
                ])
            chunks.append((types, lines, gaps))
        cores.append(with_barriers(chunks))
    return TraceSet("REPLHEAVY", cores, regions)


@pytest.fixture(scope="module")
def shared_trace():
    config = MachineConfig.small()
    return config, build_trace(get_profile("WATER-NSQ"), config, scale=0.15, seed=1)


@pytest.fixture(scope="module")
def hotloop_trace():
    config = MachineConfig.small()
    return config, build_trace(HOTLOOP_PROFILE, config, scale=1.0, seed=1)


@pytest.fixture(scope="module")
def runheavy_trace():
    config = MachineConfig.small()
    return config, build_runheavy_traces(config)


@pytest.fixture(scope="module")
def replheavy_trace():
    config = MachineConfig.small()
    return config, build_replheavy_traces(config)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scheme", ["S-NUCA", "R-NUCA", "VR", "ASR", "RT-3"])
def test_scheme_throughput(benchmark, shared_trace, scheme, kernel):
    config, traces = shared_trace

    def run():
        return simulate(make_scheme(scheme, config), traces, kernel=kernel)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["accesses_per_second"] = (
        traces.total_accesses() / benchmark.stats.stats.mean
    )
    assert stats.completion_time > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_hotloop_throughput(benchmark, hotloop_trace, kernel):
    config, traces = hotloop_trace

    def run():
        return simulate(make_scheme("RT-3", config), traces, kernel=kernel)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["accesses_per_second"] = (
        traces.total_accesses() / benchmark.stats.stats.mean
    )
    assert stats.completion_time > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_runheavy_throughput(benchmark, runheavy_trace, kernel):
    config, traces = runheavy_trace

    def run():
        return simulate(make_scheme("RT-3", config), traces, kernel=kernel)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["accesses_per_second"] = (
        traces.total_accesses() / benchmark.stats.stats.mean
    )
    assert stats.completion_time > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_replheavy_throughput(benchmark, replheavy_trace, kernel):
    config, traces = replheavy_trace

    def run():
        return simulate(make_scheme("RT-3", config), traces, kernel=kernel)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["accesses_per_second"] = (
        traces.total_accesses() / benchmark.stats.stats.mean
    )
    # The regime is meaningful only while replicas service the straggler.
    assert stats.miss_breakdown()["LLC-Replica-Hits"] > 0.5


def _best_rate(kernel, scheme, config, traces, rounds=3):
    accesses = traces.total_accesses()
    best = float("inf")
    for _ in range(rounds):
        engine = make_scheme(scheme, config)
        started = time.perf_counter()
        simulate(engine, traces, kernel=kernel)
        best = min(best, time.perf_counter() - started)
    return accesses / best


@pytest.mark.wallclock
@pytest.mark.parametrize("scheme", ["S-NUCA", "RT-3"])
def test_fast_kernel_speedup_at_least_2x(hotloop_trace, scheme):
    """Acceptance gate: ≥2× simulated-accesses/sec over the reference
    kernel in the hit-heavy regime (measured ~3×; 2× leaves headroom,
    and REPRO_KERNEL_SPEEDUP_MIN relaxes the floor on noisy runners)."""
    config, traces = hotloop_trace
    reference_rate = _best_rate("reference", scheme, config, traces)
    fast_rate = _best_rate("fast", scheme, config, traces)
    speedup = fast_rate / reference_rate
    print(
        f"\n{scheme}: reference {reference_rate:,.0f} acc/s, "
        f"fast {fast_rate:,.0f} acc/s — {speedup:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast kernel only {speedup:.2f}x over reference on {scheme} "
        f"(required >= {SPEEDUP_FLOOR}x)"
    )


@pytest.mark.wallclock
@pytest.mark.parametrize("scheme", ["S-NUCA", "RT-3"])
def test_batched_kernel_speedup_on_runheavy(runheavy_trace, scheme):
    """Acceptance gate: the batched kernel is ≥1.3× the *fast* kernel on
    the run-heavy regime (measured ~1.5×; REPRO_BATCHED_SPEEDUP_MIN
    relaxes the floor on noisy runners)."""
    config, traces = runheavy_trace
    fast_rate = _best_rate("fast", scheme, config, traces)
    batched_rate = _best_rate("batched", scheme, config, traces)
    speedup = batched_rate / fast_rate
    print(
        f"\n{scheme}: fast {fast_rate:,.0f} acc/s, "
        f"batched {batched_rate:,.0f} acc/s — {speedup:.2f}x"
    )
    assert speedup >= BATCHED_SPEEDUP_FLOOR, (
        f"batched kernel only {speedup:.2f}x over fast on {scheme} "
        f"(required >= {BATCHED_SPEEDUP_FLOOR}x)"
    )


@pytest.mark.wallclock
@pytest.mark.parametrize("scheme", ["RT-1", "RT-3"])
def test_batched_kernel_speedup_on_replheavy(replheavy_trace, scheme):
    """Acceptance gate: with the local-replica fast path, the batched
    kernel is ≥1.3× the *fast* kernel on the replica-dominated regime —
    the workloads the paper cares about most used to be the ones the
    batched kernel helped least (replica hits single-stepped the miss
    path; REPRO_BATCHED_SPEEDUP_MIN relaxes the floor on noisy
    runners)."""
    config, traces = replheavy_trace
    fast_rate = _best_rate("fast", scheme, config, traces)
    batched_rate = _best_rate("batched", scheme, config, traces)
    speedup = batched_rate / fast_rate
    print(
        f"\n{scheme}: fast {fast_rate:,.0f} acc/s, "
        f"batched {batched_rate:,.0f} acc/s — {speedup:.2f}x (REPLHEAVY)"
    )
    assert speedup >= BATCHED_SPEEDUP_FLOOR, (
        f"batched kernel only {speedup:.2f}x over fast on {scheme} REPLHEAVY "
        f"(required >= {BATCHED_SPEEDUP_FLOOR}x)"
    )


@pytest.mark.wallclock
@pytest.mark.parametrize("scheme", ["S-NUCA", "RT-3"])
def test_vector_kernel_speedup_on_runheavy(runheavy_trace, scheme):
    """Acceptance gate: the vector kernel is ≥10× the *reference*
    kernel on the run-heavy regime — the long zero-gap hit runs it
    commits as single numpy spans (measured ~10-14×;
    REPRO_VECTOR_SPEEDUP_MIN relaxes the floor on noisy runners)."""
    config, traces = runheavy_trace
    # Best-of-5: a 10x floor leaves less noise headroom than the 1.3x
    # gates above, and extra vector rounds are nearly free (~60ms each).
    reference_rate = _best_rate("reference", scheme, config, traces, rounds=5)
    vector_rate = _best_rate("vector", scheme, config, traces, rounds=5)
    speedup = vector_rate / reference_rate
    print(
        f"\n{scheme}: reference {reference_rate:,.0f} acc/s, "
        f"vector {vector_rate:,.0f} acc/s — {speedup:.2f}x"
    )
    assert speedup >= VECTOR_SPEEDUP_FLOOR, (
        f"vector kernel only {speedup:.2f}x over reference on {scheme} "
        f"(required >= {VECTOR_SPEEDUP_FLOOR}x)"
    )


def test_auto_selection_tracks_the_winning_kernel(
    hotloop_trace, runheavy_trace, replheavy_trace
):
    """``choose_kernel`` must route each benchmark regime to the kernel
    the gates above show winning there: lockstep HOTLOOP to ``fast``,
    and both imbalanced regimes to ``vector`` when the engine supports
    spans (falling back to ``batched`` when it does not)."""
    config, hotloop = hotloop_trace
    _, runheavy = runheavy_trace
    _, replheavy = replheavy_trace
    engine = make_scheme("RT-3", config)
    assert choose_kernel(hotloop, engine) == "fast"
    assert choose_kernel(runheavy, engine) == "vector"
    assert choose_kernel(replheavy, engine) == "vector"
    assert choose_kernel(runheavy) == "batched"


def test_trace_generation_throughput(benchmark):
    config = MachineConfig.small()

    def build():
        return build_trace(get_profile("BARNES"), config, scale=0.5, seed=11)

    traces = benchmark.pedantic(build, rounds=3, iterations=1)
    assert traces.total_accesses() > 0
