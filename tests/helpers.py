"""Test utilities: protocol drivers and coherence-invariant checking."""

from __future__ import annotations

import types
from typing import NamedTuple

import numpy as np

from repro.cache.entries import HomeEntry, ReplicaEntry
from repro.common.addr import Region
from repro.common.types import AccessType, LineClass, MESIState, MissStatus
from repro.schemes.base import ProtocolEngine
from repro.sim.stats import SimStats
from repro.workloads.streaming import ArraySegmentSource, StreamingTraceSet
from repro.workloads.trace import CoreTrace, TraceSet


class FixedLatencyEngine:
    """Minimal engine stub: every access costs exactly ``latency`` cycles.

    With memory latency deterministic and contention-free, event-loop
    quantities (barrier arrivals, release times, finish times) are exactly
    computable, which makes the kernel scheduling properties testable in
    isolation from the machine model.  Records every dispatched access in
    ``calls`` as ``(core, access_type_value, line, issue_time)``, so a
    divergence between kernels pinpoints the first reordered access.
    """

    def __init__(self, num_cores: int, latency: float = 5.0) -> None:
        self.config = types.SimpleNamespace(num_cores=num_cores, l1_latency=latency)
        self.stats = SimStats(num_cores)
        self.latency = latency
        self.calls: list[tuple[int, int, int, float]] = []

    def access(self, core: int, atype: AccessType, line_addr: int, now: float) -> float:
        self.calls.append((core, int(atype), line_addr, now))
        self.stats.record_miss(MissStatus.L1_HIT)
        return self.latency

    def make_fast_access(self):
        return self.access

    def finalize(self) -> None:
        pass


def records_trace_set(
    per_core: list[list[tuple[AccessType, int, int]]],
    name: str = "records",
    region_lines: int = 1 << 16,
) -> TraceSet:
    """Build a TraceSet from per-core ``(type, line, gap)`` record lists."""
    cores = []
    for records in per_core:
        cores.append(
            CoreTrace(
                types=np.array([r[0] for r in records], dtype=np.uint8),
                lines=np.array([r[1] for r in records], dtype=np.int64),
                gaps=np.array([r[2] for r in records], dtype=np.uint16),
            )
        )
    return TraceSet(
        name, cores, [(Region(0, region_lines), LineClass.SHARED_RW)]
    )


def streamed_view(
    traces: TraceSet, chunk_records: int, regions=None
) -> StreamingTraceSet:
    """``traces`` behind a :class:`StreamingTraceSet` façade that slices
    its arrays in ``chunk_records`` windows (``regions`` overrides the
    map the façade declares)."""
    return StreamingTraceSet(
        name=traces.name,
        num_cores=traces.num_cores,
        regions=traces.regions if regions is None else regions,
        source_factory=lambda: ArraySegmentSource(traces, chunk_records),
        gaps_integral=traces.gaps_integral,
        total_records=traces.total_accesses(),
        total_barriers=traces.cores[0].barrier_count() if traces.cores else 0,
    )


class Access(NamedTuple):
    """One access as a test sees it: its latency and how it was served."""

    latency: float
    status: MissStatus


def access_once(
    engine: ProtocolEngine, core: int, atype: AccessType, line_addr: int, now: float
) -> Access:
    """Run one access; its status is the ``miss_status`` entry it bumped."""
    before = dict(engine.stats.miss_status)
    latency = engine.access(core, atype, line_addr, now)
    (status,) = [
        status for status, count in engine.stats.miss_status.items()
        if count != before.get(status, 0)
    ]
    return Access(latency, status)


def drive(
    engine: ProtocolEngine,
    accesses: list[tuple[int, AccessType, int]],
    start_time: float = 0.0,
    step: float = 100.0,
) -> list[Access]:
    """Feed a hand-written access sequence through the engine.

    Accesses are spaced ``step`` cycles apart, which keeps timestamps
    monotone (the contention models assume a mostly-advancing clock).
    """
    results = []
    now = start_time
    for core, atype, line in accesses:
        results.append(access_once(engine, core, atype, line, now))
        now += step
    return results


def read(core: int, line: int) -> tuple[int, AccessType, int]:
    return core, AccessType.READ, line


def write(core: int, line: int) -> tuple[int, AccessType, int]:
    return core, AccessType.WRITE, line


def ifetch(core: int, line: int) -> tuple[int, AccessType, int]:
    return core, AccessType.IFETCH, line


def holders_of(engine: ProtocolEngine, line_addr: int) -> dict[int, list[str]]:
    """Which cores hold which kinds of copies of a line."""
    holders: dict[int, list[str]] = {}
    for core in range(engine.config.num_cores):
        kinds = []
        l1d_entry = engine.l1d[core].lookup(line_addr)
        if l1d_entry is not None and l1d_entry.valid:
            kinds.append(f"l1d:{l1d_entry.state.name}")
        l1i_entry = engine.l1i[core].lookup(line_addr)
        if l1i_entry is not None and l1i_entry.valid:
            kinds.append(f"l1i:{l1i_entry.state.name}")
        replica = engine.slices[core].replica(line_addr)
        if replica is not None and replica.valid:
            kinds.append(f"replica:{replica.state.name}")
        if kinds:
            holders[core] = kinds
    return holders


def check_coherence(engine: ProtocolEngine) -> list[str]:
    """Verify the machine-wide coherence invariants; returns violations.

    1. Single-writer: at most one coherence *unit* holds a writable (M/E)
       copy of a line, and if one does, no other unit holds any copy.
       A unit is a core's local hierarchy — or a whole cluster when
       cluster-level replication is active, since the cluster replica and
       its members' L1 copies form one hierarchical subtree
       (Section 2.3.4).
    2. Inclusion: every L1 copy and every replica is backed by a live
       home entry somewhere in the LLC.
    3. Directory accuracy: a home entry's sharer set equals the set of
       cores holding copies in their local hierarchies.
    """
    violations: list[str] = []
    lines: set[int] = set()
    home_of: dict[int, int] = {}
    for slice_index, llc in enumerate(engine.slices):
        for entry in llc:
            lines.add(entry.line_addr)
            if isinstance(entry, HomeEntry):
                if entry.line_addr in home_of and not (
                    engine.placement.homes_depend_on_requester
                ):
                    violations.append(
                        f"line {entry.line_addr:#x} has two homes: "
                        f"{home_of[entry.line_addr]} and {slice_index}"
                    )
                home_of[entry.line_addr] = slice_index
    for core in range(engine.config.num_cores):
        for l1 in (engine.l1d[core], engine.l1i[core]):
            for entry in l1:
                lines.add(entry.line_addr)

    cluster_size = engine.config.cluster_size
    side = engine.config.mesh_side

    def unit_of(core: int) -> int:
        if cluster_size <= 1:
            return core
        from repro.network.topology import cluster_of
        return cluster_of(core, cluster_size, side)

    for line_addr in sorted(lines):
        holders = holders_of(engine, line_addr)
        # The home slice may itself hold a replica-free home copy; holders
        # covers only L1s and replica entries, which is what we want.
        writer_units = {
            unit_of(core)
            for core, kinds in holders.items()
            if any(state in kind for kind in kinds
                   for state in ("MODIFIED", "EXCLUSIVE"))
        }
        holder_units = {unit_of(core) for core in holders}
        if len(writer_units) > 1:
            violations.append(
                f"line {line_addr:#x}: multiple writable holders {holders}"
            )
        if writer_units and len(holder_units) > 1:
            violations.append(
                f"line {line_addr:#x}: writer coexists with other copies {holders}"
            )
        if holders and line_addr not in home_of:
            violations.append(
                f"line {line_addr:#x}: copies {holders} with no home entry"
            )
    # Directory accuracy (skip per-cluster instruction homes: each cluster
    # tracks only its own members).
    if not engine.placement.homes_depend_on_requester:
        for line_addr, slice_index in home_of.items():
            entry = engine.slices[slice_index].home(line_addr)
            assert entry is not None
            holders = set(holders_of(engine, line_addr))
            tracked = set(entry.sharers.members())
            if holders != tracked:
                violations.append(
                    f"line {line_addr:#x}: directory tracks {sorted(tracked)} "
                    f"but holders are {sorted(holders)}"
                )
    return violations


def count_replicas(engine: ProtocolEngine) -> int:
    return sum(llc.replica_count() for llc in engine.slices)


def find_replica(engine: ProtocolEngine, core: int, line_addr: int) -> ReplicaEntry | None:
    return engine.slices[engine.replica_slice_for(core, line_addr)].replica(line_addr)


def l1_state(engine: ProtocolEngine, core: int, line_addr: int) -> MESIState | None:
    entry = engine.l1d[core].lookup(line_addr)
    if entry is None:
        return None
    return entry.state
