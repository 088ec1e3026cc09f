"""Trace representation for the trace-driven simulator.

A trace is one access stream per core.  Each record is
``(type, line address, compute gap)`` where the gap is the number of
non-memory cycles the in-order core spends before issuing the access.
``AccessType.BARRIER`` records synchronize all cores (every core must
carry the same number of barriers).

The :class:`TraceSet` also carries the region → data-class map so the
Figure 1 profiler can classify lines without help from the simulator.
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
    """Plain-Python view of one core's records for the simulation hot loop.

    The simulator touches every record exactly once, so per-record numpy
    scalar extraction (``trace.types[i]``), ``AccessType(...)`` enum
    construction and ``float()``/``int()`` coercions dominate a naive
    loop.  Decoding hoists all of that into one vectorized pass:

    * ``atypes`` — :class:`AccessType` members (table lookup, no enum call);
    * ``lines`` — native ints;
    * ``gaps`` — native floats;
    * ``compute_cycles`` — the summed non-barrier compute gap, so the
      Compute latency bucket can be charged once per window instead of
      once per record.  ``gaps_integral`` records whether every gap is
      integer-valued: only then is the batched float sum order-independent
      (exact), so the fast kernel falls back to per-record charging when
      it is False to stay bit-identical to the reference accumulation
      order.

    A view is one *window* of the fast kernel's loop: a whole core's
    trace (:meth:`CoreTrace.decoded`) or one streamed chunk
    (:func:`repro.workloads.streaming.window_decoded`).  The boxed views
    (``atypes``/``lines``/``gaps``) are built lazily on first attribute
    access and cached: constructing a ``DecodedTrace`` costs only the
    cheap vectorized summaries (length, compute cycles, integrality), so
    callers that never enter the boxed hot loop — the reference kernel —
    never pay the ~30x boxed-list memory blowup, and
    ``CoreTrace.release_decoded`` frees it deterministically.
    """

    __slots__ = (
        "length", "compute_cycles", "gaps_integral",
        "_types_array", "_gaps_array", "_lines_array",
        "_atypes", "_lines", "_gaps",
    )

    def __init__(self, trace: "CoreTrace") -> None:
        self.length = len(trace.types)
        non_barrier = trace.types != AccessType.BARRIER
        self.compute_cycles = float(
            trace.gaps[non_barrier].sum(dtype=np.float64)
        )
        self.gaps_integral = trace.gaps.dtype.kind in "iub" or bool(
            np.all(trace.gaps == np.floor(trace.gaps))
        )
        # Backing arrays retained for the lazy boxed views; frozen while
        # this decoded view is cached (see CoreTrace.decoded).
        self._types_array = trace.types
        self._gaps_array = trace.gaps
        self._lines_array = trace.lines
        self._atypes: list | None = None
        self._lines: list[int] | None = None
        self._gaps: list[float] | None = None

    @property
    def atypes(self) -> list:
        """Boxed :class:`AccessType` members (built and cached on first use)."""
        atypes = self._atypes
        if atypes is None:
            table = _ACCESS_TYPE_BY_VALUE
            atypes = [table[value] for value in self._types_array.tolist()]
            self._atypes = atypes
        return atypes

    @property
    def lines(self) -> list[int]:
        """Boxed native-int line addresses (built and cached on first use)."""
        lines = self._lines
        if lines is None:
            lines = self._lines_array.tolist()
            self._lines = lines
        return lines

    @property
    def gaps(self) -> list[float]:
        """Boxed native-float gaps (built and cached on first use)."""
        gaps = self._gaps
        if gaps is None:
            gaps = self._gaps_array.astype(np.float64).tolist()
            self._gaps = gaps
        return gaps


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
        self._decoded: DecodedTrace | None = None

    def __len__(self) -> int:
        return len(self.types)

    def decoded(self) -> DecodedTrace:
        """Cached :class:`DecodedTrace` view.

        Caching freezes the backing arrays (mutation would silently
        desynchronize the cached view from the array data): in-place
        writes raise until :meth:`release_decoded` thaws them.
        """
        if self._decoded is None:
            self._decoded = DecodedTrace(self)
            for array in (self.types, self.lines, self.gaps):
                array.setflags(write=False)
        return self._decoded

    def release_decoded(self) -> None:
        """Drop the cached decoded view (it rebuilds on demand).

        The view holds boxed-Python copies of the arrays — worth freeing
        once a batch of simulations over this trace is finished.  The
        backing arrays become writable again.
        """
        if self._decoded is not None:
            self._decoded = None
            for array in (self.types, self.lines, self.gaps):
                array.setflags(write=True)

    def barrier_count(self) -> int:
        return int(np.count_nonzero(self.types == AccessType.BARRIER))


@dataclasses.dataclass
class TraceSet:
    """Per-core traces plus the data-class layout of the address space."""

    #: Class marker the simulator dispatches on: a materialized set is
    #: simulated in one window per core, while a streaming set
    #: (:class:`repro.workloads.streaming.StreamingTraceSet`, which
    #: duck-types this surface) is fed to the fast kernel in
    #: bounded-memory windows.
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

    def decoded(self) -> list[DecodedTrace]:
        """Per-core :class:`DecodedTrace` views (cached on the cores).

        Cheap to call: the views' expensive boxed lists are built lazily
        per core on first hot-loop attribute access, not here.
        """
        return [trace.decoded() for trace in self.cores]

    def segments(self, chunk_records: "int | None" = None):
        """Iterate the set as bounded-memory :class:`TraceSegment` chunks.

        Delegates to :func:`repro.workloads.streaming.iter_segments`; see
        there for the run-boundary handoff contract.
        """
        from repro.workloads.streaming import iter_segments

        return iter_segments(self, chunk_records)

    def release_decoded(self) -> None:
        """Drop every core's cached decoded view."""
        for trace in self.cores:
            trace.release_decoded()

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
