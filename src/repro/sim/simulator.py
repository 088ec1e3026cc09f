"""Trace-driven simulation entry point.

Cores are in-order and single-issue (Table 1): each core processes its
trace sequentially, spending the record's compute gap and then the full
memory latency of the access.  The simulator interleaves cores in global
time order (a heap keyed by each core's next-ready time) so the shared
resources' contention models — mesh links, DRAM controllers, per-line
home serialization — observe causally ordered traffic.

Barrier records implement the synchronization component of the
completion-time breakdown: a core reaching a barrier parks until every
*running* core has arrived, and its wait is charged to the
Synchronization bucket.  :class:`~repro.workloads.trace.TraceSet`
guarantees all cores carry the same number of barriers.

The event loop itself is pluggable (:mod:`repro.sim.kernel`): the
``reference`` kernel is the simple per-record baseline and the ``fast``
kernel is the hoisted/run-ahead loop over bounded per-core windows
(``REPRO_STREAM_CHUNK`` records) of any set, materialized or streamed;
the two are bit-identical — an equivalence the
:mod:`repro.testing` differential harness enforces (continuously over
fuzzed profiles in the nightly CI).  Select a kernel per call
(``simulate(..., kernel="reference")``), per process
(``REPRO_SIM_KERNEL=reference``), or via the experiment CLI
(``python -m repro experiments --kernel reference ...``).
"""

from __future__ import annotations

from repro.schemes.base import ProtocolEngine
from repro.sim.kernel import (  # noqa: F401  (re-exported for convenience)
    DEFAULT_KERNEL,
    KERNELS,
    FastKernel,
    ReferenceKernel,
    SimulationKernel,
    resolve_kernel,
)
from repro.sim.stats import SimStats
from repro.workloads.trace import TraceSet


def simulate(
    engine: ProtocolEngine,
    traces: TraceSet,
    kernel: str | SimulationKernel | None = None,
) -> SimStats:
    """Run ``traces`` through ``engine`` and return the collected stats.

    ``kernel`` selects the event-loop implementation by name
    (``"fast"``/``"reference"``), instance, or class; ``None`` uses the
    ``REPRO_SIM_KERNEL`` environment variable, defaulting to the fast
    kernel.  ``traces`` may be a materialized :class:`TraceSet` or a
    :class:`~repro.workloads.streaming.StreamingTraceSet`; the fast
    kernel pulls either in bounded windows, and a stream always runs it
    (the reference loop indexes whole traces), keeping the selected
    kernel's ``perturb_seed``.  The set's arrays are only read.
    """
    config = engine.config
    if traces.num_cores != config.num_cores:
        raise ValueError(
            f"trace has {traces.num_cores} cores but machine has {config.num_cores}"
        )
    # A no-op for streams: their windows are checked as they arrive.
    traces.validate_coverage()
    runner = resolve_kernel(kernel)
    if getattr(traces, "is_streaming", False) and not isinstance(runner, FastKernel):
        runner = FastKernel(perturb_seed=runner.perturb_seed)
    runner.run(engine, traces)
    engine.finalize()
    stats = engine.stats
    stats.completion_time = max(stats.core_finish) if stats.core_finish else 0.0
    return stats
