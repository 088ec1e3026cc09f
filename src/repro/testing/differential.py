"""Differential kernel verification.

The optimized ``fast`` simulation kernel claims bit-identical results
to the reference loop.  This module makes that claim testable:
build the same engine per kernel, run the same traces through each, and
diff every field of the resulting :class:`~repro.sim.stats.SimStats`.
A non-empty diff is a kernel bug by definition — there is no tolerance,
because the only batched floating-point accumulation in the fast
kernel is a sum of integer-valued cycle counts (order-independent),
and event order itself is preserved exactly.

Typical use::

    from repro.testing import verify_kernels, verify_all_kernels

    verify_kernels(lambda: make_scheme("RT-3", config), traces)
    verify_all_kernels(lambda: make_scheme("RT-3", config), traces)

``verify_kernels`` raises :class:`DifferentialMismatch` with a readable
report on any divergence.  Rather than dumping the whole-SimStats
inequality, the harness *localizes* the bug first: it bisects over trace
prefixes to the earliest record count at which the kernels disagree and
leads the report with the cycle-stamped stat fields that diverged there
(:func:`locate_first_divergence`).

The randomized-profile fuzzing front-end lives in
:mod:`repro.testing.fuzz` (CLI: ``python -m repro testing
verify-kernels --fuzz N --seed S``), which the nightly CI runs across
all registered kernels.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.common.types import AccessType
from repro.schemes.base import ProtocolEngine
from repro.sim.kernel import kernel_names
from repro.sim.simulator import simulate
from repro.sim.stats import SimStats
from repro.workloads.trace import CoreTrace, TraceSet

#: The Counter-valued SimStats sections diffed key-by-key.
_COUNTER_SECTIONS = ("counters", "energy_counts", "latency", "miss_status")

#: Traces larger than this skip first-divergence localization by default
#: (each bisection probe re-simulates a prefix twice).
_LOCATE_MAX_ACCESSES = 500_000


@dataclasses.dataclass(frozen=True)
class StatsDiff:
    """One divergent measurement between two runs."""

    section: str
    key: str
    reference: object
    candidate: object

    def __str__(self) -> str:
        return (
            f"{self.section}[{self.key}]: "
            f"reference={self.reference!r} candidate={self.candidate!r}"
        )


@dataclasses.dataclass(frozen=True)
class FirstDivergence:
    """The earliest localized point at which two kernels disagree.

    ``record_index`` is the smallest per-core trace prefix length whose
    simulation already diverges (record counts, not cycles);  ``cycle``
    is the reference kernel's completion time of that prefix — the
    cycle stamp at which the divergence is first observable; ``diffs``
    are the stat fields differing at that prefix (typically one or two,
    against the full run's potentially hundreds of knock-on diffs).
    """

    record_index: int
    cycle: float
    diffs: tuple[StatsDiff, ...]

    def __str__(self) -> str:
        fields = ", ".join(str(diff) for diff in self.diffs[:4])
        if len(self.diffs) > 4:
            fields += f", ... and {len(self.diffs) - 4} more"
        return (
            f"first divergence within the first {self.record_index} "
            f"record(s)/core (cycle {self.cycle:.0f}): {fields}"
        )


class DifferentialMismatch(AssertionError):
    """Two kernels disagreed on the statistics of the same simulation."""

    def __init__(
        self,
        diffs: list[StatsDiff],
        context: str = "",
        first: FirstDivergence | None = None,
    ) -> None:
        self.diffs = diffs
        self.first = first
        header = f"kernels diverge ({context})" if context else "kernels diverge"
        lines = [f"{header}: {len(diffs)} differing measurement(s)"]
        if first is not None:
            lines.append(f"  {first}")
            lines.append("  full-run diff:")
        lines.extend(f"  {diff}" for diff in diffs[:20])
        if len(diffs) > 20:
            lines.append(f"  ... and {len(diffs) - 20} more")
        super().__init__("\n".join(lines))


def stats_diff(reference: SimStats, candidate: SimStats) -> list[StatsDiff]:
    """Full field-by-field diff of two :class:`SimStats` (empty = identical)."""
    diffs: list[StatsDiff] = []
    for section in _COUNTER_SECTIONS:
        ref_counter = getattr(reference, section)
        cand_counter = getattr(candidate, section)
        for key in sorted(set(ref_counter) | set(cand_counter), key=repr):
            if ref_counter[key] != cand_counter[key]:
                diffs.append(
                    StatsDiff(section, str(key), ref_counter[key], cand_counter[key])
                )
    if reference.num_cores != candidate.num_cores:
        diffs.append(StatsDiff("num_cores", "-", reference.num_cores, candidate.num_cores))
    for core, (ref_finish, cand_finish) in enumerate(
        zip(reference.core_finish, candidate.core_finish)
    ):
        if ref_finish != cand_finish:
            diffs.append(StatsDiff("core_finish", str(core), ref_finish, cand_finish))
    if len(reference.core_finish) != len(candidate.core_finish):
        diffs.append(
            StatsDiff(
                "core_finish", "len",
                len(reference.core_finish), len(candidate.core_finish),
            )
        )
    if reference.completion_time != candidate.completion_time:
        diffs.append(
            StatsDiff(
                "completion_time", "-",
                reference.completion_time, candidate.completion_time,
            )
        )
    return diffs


def assert_stats_equal(
    reference: SimStats, candidate: SimStats, context: str = ""
) -> None:
    """Raise :class:`DifferentialMismatch` unless the stats are identical."""
    diffs = stats_diff(reference, candidate)
    if diffs:
        raise DifferentialMismatch(diffs, context)


def diff_kernels(
    engine_builder: Callable[[], ProtocolEngine],
    traces: TraceSet,
    reference: str = "reference",
    candidate: str = "fast",
) -> tuple[SimStats, SimStats, list[StatsDiff]]:
    """Run both kernels over fresh engines and diff the results.

    ``engine_builder`` must return a *fresh* engine per call — engines
    are stateful and cannot be reused across runs.
    """
    reference_stats = simulate(engine_builder(), traces, kernel=reference)
    candidate_stats = simulate(engine_builder(), traces, kernel=candidate)
    return reference_stats, candidate_stats, stats_diff(reference_stats, candidate_stats)


def truncated_traces(traces: TraceSet, records: int) -> TraceSet:
    """The first ``records`` records of every core, as a valid TraceSet.

    Truncation can cut the cores' barrier counts unevenly; trailing
    barrier records are appended to equalize them (a trailing barrier
    only adds a synchronization wait, which both kernels must agree on
    anyway), so the prefix is simulatable by any kernel.
    """
    barrier = np.uint8(AccessType.BARRIER)
    prefixes = []
    for trace in traces.cores:
        types = trace.types[:records]
        prefixes.append(
            (types, trace.lines[:records], trace.gaps[:records],
             int(np.count_nonzero(types == barrier)))
        )
    max_barriers = max(count for _t, _l, _g, count in prefixes)
    cores = []
    for types, lines, gaps, count in prefixes:
        deficit = max_barriers - count
        if deficit:
            types = np.concatenate([types, np.full(deficit, barrier)])
            lines = np.concatenate([lines, np.zeros(deficit, dtype=lines.dtype)])
            gaps = np.concatenate([gaps, np.zeros(deficit, dtype=gaps.dtype)])
        cores.append(CoreTrace(np.ascontiguousarray(types),
                               np.ascontiguousarray(lines),
                               np.ascontiguousarray(gaps)))
    return TraceSet(f"{traces.name}[:{records}]", cores, traces.regions)


def locate_first_divergence(
    engine_builder: Callable[[], ProtocolEngine],
    traces: TraceSet,
    reference: str = "reference",
    candidate: str = "fast",
) -> FirstDivergence | None:
    """Bisect to the earliest trace prefix on which the kernels disagree.

    Re-simulates prefixes of the workload (``O(log n)`` kernel pairs) to
    find the smallest per-core record count whose statistics already
    differ, then reports that prefix's cycle stamp (reference completion
    time) and its — typically very short — field diff.  Returns ``None``
    if no prefix diverges (including the full trace: divergence then
    depends on the barrier-equalized truncation, not the workload).

    Divergence is assumed prefix-monotone (once a kernel has executed a
    wrong event, its statistics stay wrong); a non-monotone candidate
    still yields *a* divergent prefix, just not necessarily the first.
    """
    max_records = max((len(trace) for trace in traces.cores), default=0)
    if max_records == 0:
        return None

    def probe(records: int) -> list[StatsDiff]:
        _ref, _cand, diffs = diff_kernels(
            engine_builder, truncated_traces(traces, records), reference, candidate
        )
        return diffs

    if not probe(max_records):
        return None
    low, high = 1, max_records
    while low < high:
        mid = (low + high) // 2
        if probe(mid):
            high = mid
        else:
            low = mid + 1
    prefix = truncated_traces(traces, low)
    reference_stats = simulate(engine_builder(), prefix, kernel=reference)
    candidate_stats = simulate(engine_builder(), prefix, kernel=candidate)
    return FirstDivergence(
        low,
        reference_stats.completion_time,
        tuple(stats_diff(reference_stats, candidate_stats)),
    )


def _raise_mismatch(
    engine_builder: Callable[[], ProtocolEngine],
    traces: TraceSet,
    reference: str,
    candidate: str,
    diffs: list[StatsDiff],
    context: str,
    locate: bool | None,
) -> None:
    """Localize (unless disabled/huge) and raise the mismatch report."""
    if locate is None:
        locate = traces.total_accesses() <= _LOCATE_MAX_ACCESSES
    first = (
        locate_first_divergence(engine_builder, traces, reference, candidate)
        if locate
        else None
    )
    raise DifferentialMismatch(
        diffs, context or f"{reference} vs {candidate}", first=first
    )


def verify_kernels(
    engine_builder: Callable[[], ProtocolEngine],
    traces: TraceSet,
    reference: str = "reference",
    candidate: str = "fast",
    context: str = "",
    locate: bool | None = None,
) -> SimStats:
    """Assert both kernels agree; returns the reference stats on success.

    On a mismatch the raised :class:`DifferentialMismatch` leads with the
    *first* cycle-stamped divergent stat fields
    (:func:`locate_first_divergence`) instead of only the whole-SimStats
    inequality dump.  ``locate=False`` skips the localization bisection;
    the default localizes unless the workload is very large.
    """
    reference_stats, _candidate_stats, diffs = diff_kernels(
        engine_builder, traces, reference, candidate
    )
    if diffs:
        _raise_mismatch(
            engine_builder, traces, reference, candidate, diffs, context, locate
        )
    return reference_stats


def verify_all_kernels(
    engine_builder: Callable[[], ProtocolEngine],
    traces: TraceSet,
    reference: str = "reference",
    candidates: Iterable[str] | None = None,
    context: str = "",
    locate: bool | None = None,
) -> SimStats:
    """Verify every registered kernel against the reference in one call.

    ``candidates`` defaults to all registered kernels except
    ``reference`` (currently ``fast``), making this the check the
    fuzzing CLI and nightly CI drive.  Returns the reference stats on success.
    """
    if candidates is None:
        candidates = [name for name in kernel_names() if name != reference]
    # The reference loop is the slowest kernel by far; simulate it once
    # and diff every candidate against the same stats.
    reference_stats = simulate(engine_builder(), traces, kernel=reference)
    for candidate in candidates:
        candidate_stats = simulate(engine_builder(), traces, kernel=candidate)
        diffs = stats_diff(reference_stats, candidate_stats)
        if diffs:
            prefix = f"{context}: " if context else ""
            _raise_mismatch(
                engine_builder, traces, reference, candidate, diffs,
                f"{prefix}{reference} vs {candidate}", locate,
            )
    return reference_stats


def verify_streaming(
    engine_builder: Callable[[], ProtocolEngine],
    traces: TraceSet,
    kernels: Iterable[str] | None = None,
    chunk_records: int | None = None,
    context: str = "",
) -> SimStats:
    """Assert streamed execution is bit-identical to materialized.

    Wraps ``traces`` in a bounded-window
    :class:`~repro.workloads.streaming.StreamingTraceSet` (``chunk_records``
    per window; the ``REPRO_STREAM_CHUNK`` default otherwise) and checks
    that each kernel produces the same :class:`SimStats` streamed as it
    does over the materialized set.  Returns the materialized fast-kernel
    stats on success.  The divergence bisection does not apply here —
    the materialized/streamed pair differ in windowing, not kernel, so a
    mismatch reports the whole-stats diff with the chunk size.
    """
    from repro.workloads.streaming import StreamingTraceSet

    kernels = list(kernel_names()) if kernels is None else list(kernels)
    if not kernels:
        raise ValueError("verify_streaming needs at least one kernel")
    streamed_set = StreamingTraceSet.from_trace_set(traces, chunk_records)
    result: SimStats | None = None
    for kernel in kernels:
        materialized = simulate(engine_builder(), traces, kernel=kernel)
        streamed = simulate(engine_builder(), streamed_set, kernel=kernel)
        diffs = stats_diff(materialized, streamed)
        if diffs:
            prefix = f"{context}: " if context else ""
            raise DifferentialMismatch(
                diffs,
                f"{prefix}materialized vs streamed "
                f"(kernel={kernel}, chunk_records={chunk_records})",
            )
        if kernel == "fast":
            result = materialized
    return result if result is not None else materialized


def verify_matrix(
    engine_builders: Mapping[str, Callable[[], ProtocolEngine]],
    trace_sets: Mapping[str, TraceSet],
    reference: str = "reference",
    candidate: str = "fast",
) -> dict[tuple[str, str], SimStats]:
    """Differentially verify every (scheme, workload) combination.

    Returns the reference stats per combination; raises on the first
    divergence with the (scheme, workload) context in the message.
    """
    results: dict[tuple[str, str], SimStats] = {}
    for workload_name, traces in trace_sets.items():
        for scheme_name, builder in engine_builders.items():
            results[(scheme_name, workload_name)] = verify_kernels(
                builder,
                traces,
                reference,
                candidate,
                context=f"scheme={scheme_name} workload={workload_name}",
            )
    return results


def summarize(results: Iterable[tuple[tuple[str, str], SimStats]]) -> str:
    """Human-readable one-line-per-combination report of a verified matrix."""
    lines = ["scheme x workload: completion_time / l1_misses (kernels identical)"]
    for (scheme_name, workload_name), stats in results:
        lines.append(
            f"  {scheme_name:10s} {workload_name:14s} "
            f"{stats.completion_time:12.0f} / {stats.l1_misses()}"
        )
    return "\n".join(lines)
