"""Pluggable simulation kernels: the reference loop and the fast path.

:func:`repro.sim.simulator.simulate` drives a :class:`ProtocolEngine`
through a trace set via a *kernel* — the event loop that pops the
next-ready core off a heap, charges its compute gap, issues the access
and reschedules it.  Two interchangeable kernels implement that loop:

* :class:`ReferenceKernel` — the original, deliberately simple loop.  It
  reads each record straight out of the numpy arrays and goes through
  the heap for every event.  This is the semantic baseline the fast
  kernel must match bit-for-bit.

* :class:`FastKernel` — the optimized hot path, and the only loop that
  consumes streamed traces.  It executes each core out of decoded
  *windows* (:class:`~repro.workloads.trace.DecodedTrace`): a
  materialized :class:`~repro.workloads.trace.TraceSet` hands over each
  core's whole cached decoded view as one window, and a
  :class:`~repro.workloads.streaming.StreamingTraceSet` hands over
  bounded, coverage-checked chunks.  Records are issued through the
  engine's specialized access closure
  (:meth:`~repro.schemes.base.ProtocolEngine.make_fast_access`), and a
  popped core runs *inline* for as long as it remains globally earliest,
  skipping heap push/pop pairs entirely.

Both kernels produce **identical** :class:`~repro.sim.stats.SimStats` —
not merely statistically equivalent: the fast kernel processes events in
exactly the order the reference kernel would, the only floating-point
accumulation it batches (the Compute bucket, once per window) is a sum
of integer-valued cycle counts (order-independent), and the per-event
clock arithmetic keeps the reference's exact operation grouping (float
addition is not associative).  The :mod:`repro.testing` differential
harness enforces this equivalence across schemes, workloads and seeds —
and nightly over randomized fuzzed profiles.

*Refilling a starved window preserves global event order.*  Only the
popped core — the globally earliest — can exhaust its window, and no
other core may legally execute while an earlier-keyed core still has
records, so pulling the starved core's next window (and only then
proceeding) replays exactly the event order of one whole-trace window.

Kernels accept an optional ``perturb_seed``: when set, *scheduler
pushes* that are provably order-free — the time-zero seeding of the
ready heap and the simultaneous re-release of barrier-parked cores —
happen in a seeded-shuffled order (statistics accumulation keeps its
deterministic order: barrier waits may be fractional, and float sums
are order-sensitive).  The heap must normalize the push order away, so
any observable difference is a kernel bug — this is the hook behind the
``repro.testing.metamorphic`` equal-time-permutation check.
"""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING, Iterable

from repro.common.types import AccessType
from repro.sim import stats as stat_names
from repro.workloads.streaming import window_decoded
from repro.workloads.trace import TraceSet, check_coverage, region_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports stats)
    from repro.schemes.base import ProtocolEngine


class SimulationKernel:
    """One strategy for driving an engine through a trace set.

    A kernel owns the event loop only; all machine semantics live in the
    engine.  Contract: process every record of every core in global
    ready-time order (ties broken by core id), charge compute gaps to
    the Compute bucket and barrier waits to the Synchronization bucket,
    and record each core's finish time in ``stats.core_finish``.
    """

    #: Registry key (also the CLI / config spelling).
    name = "abstract"

    def __init__(self, perturb_seed: int | None = None) -> None:
        self.perturb_seed = perturb_seed

    def run(self, engine: "ProtocolEngine", traces: "TraceSet") -> None:
        raise NotImplementedError

    # -- equal-time permutation hook ---------------------------------------
    def _rng(self) -> random.Random | None:
        if self.perturb_seed is None:
            return None
        return random.Random(self.perturb_seed)


class ReferenceKernel(SimulationKernel):
    """The original per-record loop — the semantic baseline."""

    name = "reference"

    def run(self, engine: "ProtocolEngine", traces: "TraceSet") -> None:
        state = _ReferenceState(engine, traces, self._rng())
        state.run()


class _ReferenceState:
    """Mutable bookkeeping for one reference-kernel run."""

    def __init__(
        self,
        engine: "ProtocolEngine",
        traces: "TraceSet",
        rng: random.Random | None = None,
    ) -> None:
        self.engine = engine
        self.traces = traces
        self.stats = engine.stats
        self.rng = rng
        self.num_cores = engine.config.num_cores
        self.positions = [0] * self.num_cores
        self.lengths = [len(trace) for trace in traces.cores]
        #: Cores parked at a barrier: core -> arrival time.
        self.waiting: dict[int, float] = {}
        self.finished: set[int] = set()
        seed_order = list(range(self.num_cores))
        if rng is not None:
            rng.shuffle(seed_order)
        self.ready: list[tuple[float, int]] = [(0.0, core) for core in seed_order]
        heapq.heapify(self.ready)

    def run(self) -> None:
        while self.ready:
            now, core = heapq.heappop(self.ready)
            self._step(core, now)

    def _step(self, core: int, now: float) -> None:
        index = self.positions[core]
        if index >= self.lengths[core]:
            self.finished.add(core)
            self.stats.core_finish[core] = now
            self._maybe_release_barrier()
            return
        trace = self.traces.cores[core]
        self.positions[core] = index + 1
        if trace.types[index] == AccessType.BARRIER:
            self.waiting[core] = now
            self._maybe_release_barrier()
            return
        gap = float(trace.gaps[index])
        if gap:
            self.stats.add_latency(stat_names.COMPUTE, gap)
        issue_time = now + gap
        atype = AccessType(trace.types[index])
        result = self.engine.access(core, atype, int(trace.lines[index]), issue_time)
        heapq.heappush(self.ready, (issue_time + result.latency, core))

    def _maybe_release_barrier(self) -> None:
        """Release parked cores once every running core has arrived."""
        if not self.waiting:
            return
        if len(self.waiting) + len(self.finished) < self.num_cores:
            return
        release_time = max(self.waiting.values())
        # Synchronization is charged in deterministic (arrival) order even
        # under perturbation: waits may be fractional, and float sums are
        # order-sensitive — only the heap *pushes* are provably order-free.
        for core, arrival in self.waiting.items():
            wait = release_time - arrival
            if wait:
                self.stats.add_latency(stat_names.SYNCHRONIZATION, wait)
        released = list(self.waiting)
        if self.rng is not None:
            self.rng.shuffle(released)
        for core in released:
            heapq.heappush(self.ready, (release_time, core))
        self.waiting.clear()



class FastKernel(SimulationKernel):
    """Hoisted, run-ahead window loop — bit-identical to the reference.

    Optimizations over :class:`ReferenceKernel` (each preserves event
    order and exact arithmetic; see the module docstring):

    1. per-core :class:`DecodedTrace` windows kill numpy scalar
       extraction and ``AccessType(...)`` construction in the loop; a
       window's boxed lists are hoisted into per-core slots when it is
       pulled, so a pop reads plain lists;
    2. when every gap of the set is integer-valued, the Compute bucket is
       charged once per window from its precomputed non-barrier gap sum
       (fractional gaps are charged per record, in reference order);
    3. the engine's :meth:`make_fast_access` closure (when available)
       replaces the generic ``access()`` entry point, with attribute
       lookups and result-object construction hoisted out;
    4. a popped core keeps executing inline while its next event time is
       earlier than the heap front, eliminating push/pop pairs (a large
       win whenever one core runs ahead of or behind the pack).

    Only a core whose window is exhausted pulls the next one; a
    materialized set has a single window per core, so its second pull
    ends the core.
    """

    name = "fast"

    def run(self, engine: "ProtocolEngine", traces: "TraceSet") -> None:
        stats = engine.stats
        num_cores = engine.config.num_cores
        pull, close, batch_compute = _open_windows(traces)

        fast_access = None
        maker = getattr(engine, "make_fast_access", None)
        if maker is not None:
            fast_access = maker()
        if fast_access is None:
            engine_access = engine.access

            def fast_access(core, atype, line_addr, now, _access=engine_access):
                return _access(core, atype, line_addr, now).latency

        add_latency = stats.add_latency
        core_finish = stats.core_finish
        heappush, heappop = heapq.heappush, heapq.heappop
        BARRIER = AccessType.BARRIER
        COMPUTE = stat_names.COMPUTE
        SYNCHRONIZATION = stat_names.SYNCHRONIZATION

        # Per-core slots of the current window (empty until the first pull).
        atypes: list[list] = [[] for _ in range(num_cores)]
        lines: list[list] = [[] for _ in range(num_cores)]
        gaps: list[list] = [[] for _ in range(num_cores)]
        lengths = [0] * num_cores

        rng = self._rng()
        positions = [0] * num_cores
        waiting: dict[int, float] = {}
        finished = 0
        seed_order = list(range(num_cores))
        if rng is not None:
            rng.shuffle(seed_order)
        ready: list[tuple[float, int]] = [(0.0, core) for core in seed_order]
        heapq.heapify(ready)

        def release_barrier() -> None:
            release_time = max(waiting.values())
            # Charge waits in deterministic (arrival) order — see the
            # reference kernel: only heap pushes are provably order-free.
            for wcore, arrival in waiting.items():
                wait = release_time - arrival
                if wait:
                    add_latency(SYNCHRONIZATION, wait)
            released = list(waiting)
            if rng is not None:
                rng.shuffle(released)
            for wcore in released:
                heappush(ready, (release_time, wcore))
            waiting.clear()

        try:
            while ready:
                now, core = heappop(ready)
                core_atypes = atypes[core]
                core_lines = lines[core]
                core_gaps = gaps[core]
                length = lengths[core]
                index = positions[core]
                # Run this core inline while it stays globally earliest.
                while True:
                    if index >= length:
                        window = pull(core)
                        if window is not None:
                            atypes[core] = core_atypes = window.atypes
                            lines[core] = core_lines = window.lines
                            gaps[core] = core_gaps = window.gaps
                            lengths[core] = length = window.length
                            index = 0
                            if batch_compute and window.compute_cycles:
                                add_latency(COMPUTE, window.compute_cycles)
                            continue
                        finished += 1
                        core_finish[core] = now
                        if waiting and len(waiting) + finished >= num_cores:
                            release_barrier()
                        break
                    atype = core_atypes[index]
                    index += 1
                    if atype is BARRIER:
                        positions[core] = index
                        waiting[core] = now
                        if len(waiting) + finished >= num_cores:
                            release_barrier()
                        break
                    gap = core_gaps[index - 1]
                    if gap and not batch_compute:
                        add_latency(COMPUTE, gap)
                    issue_time = now + gap
                    now = issue_time + fast_access(
                        core, atype, core_lines[index - 1], issue_time
                    )
                    if ready and ready[0] < (now, core):
                        positions[core] = index
                        heappush(ready, (now, core))
                        break
        finally:
            close()


def _open_windows(traces):
    """``(pull, close, integral)`` for one :class:`FastKernel` run.

    ``pull(core)`` returns the core's next :class:`DecodedTrace` window,
    or ``None`` once its records are exhausted; ``close()`` releases the
    stream; ``integral`` says whether every gap of the whole set is
    integer-valued (only then is a per-window Compute sum exact).  A
    materialized set yields each core's cached decoded view once.  A
    streaming set yields its source's chunks, each checked against the
    region map as it arrives (the set cannot be validated up front
    without consuming it).
    """
    if not getattr(traces, "is_streaming", False):
        pending = list(traces.decoded())
        integral = all(window.gaps_integral for window in pending)

        def pull(core):
            window = pending[core]
            pending[core] = None
            return window

        return pull, _no_close, integral

    name = traces.name
    starts, ends = region_bounds(traces.regions)
    source = traces.open_source()
    source_pull = source.pull

    def pull(core):
        chunk = source_pull(core)
        if chunk is None:
            return None
        types, lines, gaps = chunk
        check_coverage(name, starts, ends, core, types, lines)
        return window_decoded(types, lines, gaps)

    return pull, source.close, traces.gaps_integral


def _no_close() -> None:
    """A materialized set holds no stream to release."""


#: Registered kernels by name.
KERNELS: dict[str, type[SimulationKernel]] = {
    ReferenceKernel.name: ReferenceKernel,
    FastKernel.name: FastKernel,
}

#: Kernel used when the caller does not choose one.  The fast kernel is
#: differentially verified against the reference, so it is the default.
DEFAULT_KERNEL = "fast"


def kernel_names() -> Iterable[str]:
    """The registered kernel names, in registration order."""
    return tuple(KERNELS)


def resolve_kernel(
    kernel: "str | SimulationKernel | type[SimulationKernel] | None",
) -> SimulationKernel:
    """Normalize a kernel selector (name, class, instance or None).

    ``None`` falls back to the ``REPRO_SIM_KERNEL`` environment variable,
    then to :data:`DEFAULT_KERNEL`.
    """
    if kernel is None:
        import os

        kernel = os.environ.get("REPRO_SIM_KERNEL") or DEFAULT_KERNEL
    if isinstance(kernel, SimulationKernel):
        return kernel
    if isinstance(kernel, type) and issubclass(kernel, SimulationKernel):
        return kernel()
    try:
        return KERNELS[kernel]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown simulation kernel {kernel!r}; available: {sorted(KERNELS)}"
        ) from None
