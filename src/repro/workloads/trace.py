"""Trace representation for the trace-driven simulator.

A trace is one access stream per core.  Each record is
``(type, line address, compute gap)`` where the gap is the number of
non-memory cycles the in-order core spends before issuing the access.
``AccessType.BARRIER`` records synchronize all cores (every core must
carry the same number of barriers).

The :class:`TraceSet` also carries the region → data-class map so the
Figure 1 profiler can classify lines without help from the simulator.

The fast kernel reads every set the same way: it pulls bounded per-core
windows from :meth:`TraceSet.open_source` (a streaming set offers the
same method) and decodes each into a :class:`DecodedTrace` that lives
only as long as the window.  Nothing is cached on the set, so its arrays
stay as the caller made them.
"""

from __future__ import annotations

import bisect
import dataclasses

import numpy as np

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass

#: ``AccessType`` members keyed by value, for O(1) decode without the
#: (surprisingly expensive) ``AccessType(value)`` enum constructor.
_ACCESS_TYPE_BY_VALUE = {int(member): member for member in AccessType}


class DecodedTrace:
    """One window of one core's records, decoded for the fast kernel's loop.

    The simulator touches every record exactly once, so per-record numpy
    scalar extraction (``trace.types[i]``), ``AccessType(...)`` enum
    construction and ``float()``/``int()`` coercions dominate a naive
    loop.  Decoding hoists all of that into one vectorized pass over the
    window's arrays:

    * ``atypes`` — :class:`AccessType` members (table lookup, no enum call);
    * ``lines`` — native ints;
    * ``gaps`` — native numbers (ints for an integer array, which add to
      the float clock exactly as their float values would, and which
      Python caches below 257 instead of boxing each one);
    * ``compute_cycles`` — the summed non-barrier compute gap, so the
      Compute latency bucket can be charged once per window instead of
      once per record (exact only when the set's gaps are all
      integer-valued; see ``TraceSet.gaps_integral``).

    The fast kernel builds one per pulled window and drops it when the
    window is exhausted, so the boxed lists never outgrow one chunk per
    core and the arrays they came from are neither kept nor frozen.
    """

    __slots__ = ("length", "atypes", "lines", "gaps", "compute_cycles")

    def __init__(self, types: np.ndarray, lines: np.ndarray, gaps: np.ndarray) -> None:
        table = _ACCESS_TYPE_BY_VALUE
        self.length = len(types)
        self.atypes = [table[value] for value in types.tolist()]
        self.lines = lines.tolist()
        self.gaps = gaps.tolist()
        self.compute_cycles = float(
            gaps[types != AccessType.BARRIER].sum(dtype=np.float64)
        )


def region_bounds(
    regions: "list[tuple[Region, LineClass]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Sorted ``(starts, ends)`` line arrays of a region map."""
    bounds = sorted((region.base, region.end) for region, _cls in regions)
    starts = np.array([base for base, _end in bounds], dtype=np.int64)
    ends = np.array([end for _base, end in bounds], dtype=np.int64)
    return starts, ends


def check_coverage(
    name: str,
    starts: np.ndarray,
    ends: np.ndarray,
    core: int,
    types: np.ndarray,
    lines: np.ndarray,
) -> None:
    """Raise ``ValueError`` if a non-barrier record of ``core`` targets a
    line outside every ``[starts[i], ends[i])`` region (see
    :func:`region_bounds`).  Vectorized: one ``searchsorted`` per call."""
    data = lines[types != int(AccessType.BARRIER)]
    if data.size == 0:
        return
    if starts.size == 0:
        bad = int(data[0])
    else:
        index = np.searchsorted(starts, data, side="right") - 1
        covered = (index >= 0) & (data < ends[np.maximum(index, 0)])
        if covered.all():
            return
        bad = int(data[int(np.argmin(covered))])
    raise ValueError(
        f"trace {name!r}: core {core} accesses line {bad:#x}, which no "
        f"region of the region map covers — every accessed line must fall "
        f"inside a declared (Region, LineClass) entry"
    )


@dataclasses.dataclass
class CoreTrace:
    """One core's access stream (parallel arrays)."""

    types: np.ndarray   # uint8 AccessType values
    lines: np.ndarray   # int64 line addresses
    gaps: np.ndarray    # uint16 compute cycles preceding each access

    def __post_init__(self) -> None:
        if not (len(self.types) == len(self.lines) == len(self.gaps)):
            raise ValueError("trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.types)

    def barrier_count(self) -> int:
        return int(np.count_nonzero(self.types == AccessType.BARRIER))


@dataclasses.dataclass
class TraceSet:
    """Per-core traces plus the data-class layout of the address space."""

    #: Class marker the simulator dispatches on: only a materialized set
    #: can run the reference kernel, which indexes whole traces; a
    #: streaming set (:class:`repro.workloads.streaming.StreamingTraceSet`,
    #: which duck-types this surface) always runs the fast kernel.
    is_streaming = False

    name: str
    cores: list[CoreTrace]
    #: (region, class) pairs with non-overlapping regions.
    regions: list[tuple[Region, LineClass]]
    #: Import provenance for sets ingested from external captures
    #: (:mod:`repro.workloads.imports`): source format/file/content hash
    #: and importer options.  ``None`` for synthetic traces; persisted
    #: by the version-2 ``.npz`` archive format.
    provenance: "dict | None" = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self._bases = sorted(
            (region.base, region.end, line_class) for region, line_class in self.regions
        )
        self._starts = [base for base, _end, _cls in self._bases]
        self._coverage_checked = False
        barrier_counts = {trace.barrier_count() for trace in self.cores}
        if len(barrier_counts) > 1:
            raise ValueError(f"cores disagree on barrier count: {barrier_counts}")

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def gaps_integral(self) -> bool:
        """Whether every gap is integer-valued, so the fast kernel may
        charge Compute once per window (an exact, order-free sum).

        Read per run: the arrays stay writable, so it is never cached.
        """
        return all(
            trace.gaps.dtype.kind in "iub"
            or bool(np.all(trace.gaps == np.floor(trace.gaps)))
            for trace in self.cores
        )

    def open_source(self):
        """A fresh :class:`~repro.workloads.streaming.ArraySegmentSource`
        over this set: the fast kernel pulls it in bounded windows
        (``REPRO_STREAM_CHUNK`` records per core), exactly as it pulls
        a streaming set's source."""
        from repro.workloads.streaming import ArraySegmentSource

        return ArraySegmentSource(self)

    def validate_coverage(self) -> None:
        """Raise ``ValueError`` if any access targets an unmapped line.

        Every non-barrier record must fall inside one of the declared
        regions; a trace that accesses an unmapped line would otherwise
        silently desynchronize the region-based classifiers (Figure 1
        profiling, R-NUCA page classification) from the simulated traffic.
        The check is vectorized and runs once per :class:`TraceSet`.
        """
        if self._coverage_checked:
            return
        starts, ends = region_bounds(self.regions)
        for core, trace in enumerate(self.cores):
            check_coverage(self.name, starts, ends, core, trace.types, trace.lines)
        self._coverage_checked = True

    def classify(self, line_addr: int) -> LineClass:
        """Data class of a line (Figure 1 categories)."""
        index = bisect.bisect_right(self._starts, line_addr) - 1
        if index >= 0:
            base, end, line_class = self._bases[index]
            if base <= line_addr < end:
                return line_class
        raise KeyError(f"line {line_addr:#x} not in any region")

    def total_accesses(self) -> int:
        barrier = int(AccessType.BARRIER)
        return sum(
            int(np.count_nonzero(trace.types != barrier)) for trace in self.cores
        )

    def footprint_lines(self) -> int:
        """Total distinct lines allocated across all regions."""
        return sum(region.size for region, _cls in self.regions)
