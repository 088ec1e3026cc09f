"""Streaming giga-trace pipeline: bounded-memory trace segmentation.

Materialized simulation holds a whole :class:`~repro.workloads.trace.TraceSet`
— and, for the fast kernel, its boxed
:class:`~repro.workloads.trace.DecodedTrace` views — in memory at once.
Real ChampSim captures are multi-GB, so this module feeds the simulator
in bounded **segments** instead:

* :class:`SegmentSource` — the per-core pull interface the fast
  kernel's window loop (:class:`repro.sim.kernel.FastKernel`) drains:
  ``pull(core)`` returns
  the core's next bounded ``(types, lines, gaps)`` arrays, or ``None``
  when that core's stream is exhausted.  Two implementations:

  - :class:`ArraySegmentSource` slices an in-memory :class:`TraceSet`
    (the ``.npz`` path: the compact arrays fit, the boxed views would
    not — streaming bounds the boxed window to one chunk per core);
  - :class:`CaptureSegmentSource` decodes an external capture file
    block-by-block (the direct-capture path: nothing but the current
    decode block and small per-core staging buffers ever exists).

* :class:`SegmentProducer` — the decode/simulate overlap: a background
  thread pulls decoded segments from a source iterator into a bounded
  queue (``REPRO_STREAM_QUEUE`` deep) so chunk ``N+1`` is decompressed
  and decoded while the kernel simulates chunk ``N``.

* :class:`StreamingTraceSet` — the :class:`TraceSet`-shaped façade
  (``is_streaming = True``) that :func:`repro.sim.simulator.simulate`
  hands to the fast kernel's window loop.  It is *re-openable*: each
  simulation run calls :meth:`open_source` for a fresh source, so one
  streaming set can drive a whole experiment grid.

* :func:`iter_segments` — the inspection/test-facing segment iterator
  behind :meth:`TraceSet.segments`, yielding lock-step
  :class:`TraceSegment` windows of decoded chunks plus the explicit
  per-core handoff offsets.

Chunk size comes from ``REPRO_STREAM_CHUNK`` (records per core per
chunk, default :data:`DEFAULT_CHUNK_RECORDS`); the queue depth from
``REPRO_STREAM_QUEUE``.  Memory stays proportional to
``num_cores x chunk``, independent of trace length — see the README's
"Streaming giga-traces" section for the measured envelope.
"""

from __future__ import annotations

import bisect
import dataclasses
import os
import queue
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass
from repro.workloads.trace import CoreTrace, DecodedTrace, TraceSet

#: Default records per core per chunk.  At ~17 bytes/record of array
#: data plus the boxed window the fast kernel touches (~600 bytes/record
#: worst case), a 64-core machine stays well under a GB.
DEFAULT_CHUNK_RECORDS = 65536

#: Environment knobs (documented in the README).
STREAM_CHUNK_ENV = "REPRO_STREAM_CHUNK"
STREAM_QUEUE_ENV = "REPRO_STREAM_QUEUE"
STREAM_THRESHOLD_ENV = "REPRO_STREAM_THRESHOLD"

#: Archive size (bytes) above which ``imported:`` benchmarks stream by
#: default (``REPRO_STREAM_THRESHOLD`` overrides; ``0`` streams always,
#: a negative value never streams).
DEFAULT_STREAM_THRESHOLD = 64 * 1024 * 1024

#: Default bounded-queue depth for the decode/simulate overlap.
DEFAULT_QUEUE_DEPTH = 2


def stream_chunk_records(chunk_records: "int | None" = None) -> int:
    """Resolve the chunk size: explicit value, else env, else default."""
    if chunk_records is None:
        raw = os.environ.get(STREAM_CHUNK_ENV)
        chunk_records = int(raw) if raw else DEFAULT_CHUNK_RECORDS
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    return chunk_records


def stream_queue_depth() -> int:
    raw = os.environ.get(STREAM_QUEUE_ENV)
    depth = int(raw) if raw else DEFAULT_QUEUE_DEPTH
    if depth < 1:
        raise ValueError(f"{STREAM_QUEUE_ENV} must be >= 1, got {depth}")
    return depth


def stream_threshold_bytes() -> int:
    raw = os.environ.get(STREAM_THRESHOLD_ENV)
    return int(raw) if raw else DEFAULT_STREAM_THRESHOLD


# ---------------------------------------------------------------------------
# Segment sources
# ---------------------------------------------------------------------------

#: One core's chunk: parallel (types uint8, lines int64, gaps) arrays.
CoreChunk = "tuple[np.ndarray, np.ndarray, np.ndarray]"


class SegmentSource:
    """Per-core bounded record feed for one simulation run.

    ``pull(core)`` hands the streaming event loop the next window of
    records for ``core`` — up to ``chunk_records`` of them — or ``None``
    when the core's stream is exhausted.  Pulls happen only for the
    *starved* (globally earliest) core, so a source needs no global
    barrier alignment; it only promises per-core record order.
    """

    num_cores: int
    chunk_records: int

    def pull(self, core: int):  # -> CoreChunk | None
        raise NotImplementedError

    def close(self) -> None:
        """Release any decode thread / file handle (idempotent)."""


class ArraySegmentSource(SegmentSource):
    """Slice an in-memory :class:`TraceSet` into per-core windows.

    The backing arrays stay as-is (compact numpy, no boxing); each pull
    is a zero-copy slice, so the only per-window cost is the boxed
    :class:`DecodedTrace` view the fast kernel builds — bounded by the
    chunk size instead of the trace length.
    """

    def __init__(self, traces: TraceSet, chunk_records: "int | None" = None):
        self.traces = traces
        self.num_cores = traces.num_cores
        self.chunk_records = stream_chunk_records(chunk_records)
        self._offsets = [0] * self.num_cores

    def pull(self, core: int):
        trace = self.traces.cores[core]
        start = self._offsets[core]
        if start >= len(trace):
            return None
        end = min(start + self.chunk_records, len(trace))
        self._offsets[core] = end
        return (
            trace.types[start:end],
            trace.lines[start:end],
            trace.gaps[start:end],
        )


class CaptureSegmentSource(SegmentSource):
    """Drain an iterator of decoded per-core segments, with staging.

    The feed (e.g. :func:`repro.workloads.champsim_bin.iter_access_segments`,
    optionally wrapped in a :class:`SegmentProducer` for background
    decode) yields *lock-step* segments: one list of per-core chunks per
    decoded file block.  The event loop pulls per core on demand, so
    chunks for not-yet-starved cores wait in per-core staging queues.

    Staging is bounded by consumption skew, not trace length: each
    pulled block adds at most one chunk per core, and a core's staging
    drains the moment it starves.  Pathologically time-imbalanced
    captures (one core's records orders of magnitude cheaper than
    another's) can grow the slow cores' staging — the README documents
    the envelope; balanced round-robin captures stay at O(queue depth)
    blocks.
    """

    def __init__(
        self,
        segments: "Iterable[list[CoreChunk]]",
        num_cores: int,
        chunk_records: "int | None" = None,
    ):
        self.num_cores = num_cores
        self.chunk_records = stream_chunk_records(chunk_records)
        self._segments = iter(segments)
        self._staged: list[list] = [[] for _ in range(num_cores)]
        self._exhausted = False

    def _advance(self) -> bool:
        """Stage one more decoded segment; False at end of stream."""
        if self._exhausted:
            return False
        try:
            segment = next(self._segments)
        except StopIteration:
            self._exhausted = True
            return False
        if len(segment) != self.num_cores:
            raise ValueError(
                f"segment feed yielded {len(segment)} core chunks for a "
                f"{self.num_cores}-core stream"
            )
        for core, chunk in enumerate(segment):
            if len(chunk[0]):
                self._staged[core].append(chunk)
        return True

    def pull(self, core: int):
        staged = self._staged[core]
        while not staged:
            if not self._advance():
                return None
        if len(staged) == 1:
            types, lines, gaps = staged.pop()
        else:
            # Consumption skew batched several blocks for this core;
            # hand them over as one window (fewer suspends later).
            types = np.concatenate([chunk[0] for chunk in staged])
            lines = np.concatenate([chunk[1] for chunk in staged])
            gaps = np.concatenate([chunk[2] for chunk in staged])
            staged.clear()
        return types, lines, gaps

    def close(self) -> None:
        closer = getattr(self._segments, "close", None)
        if closer is not None:
            closer()


# ---------------------------------------------------------------------------
# Decode/simulate overlap: the producer thread
# ---------------------------------------------------------------------------

_DONE = object()


class SegmentProducer:
    """Background-thread prefetch of a segment iterator (bounded queue).

    Wraps any iterator of decoded segments: a daemon thread advances it
    — file read, decompression, numpy decode — and parks the results in
    a ``queue.Queue`` of depth ``depth``, so the consumer (the
    simulation loop) overlaps chunk ``N``'s simulate with chunk
    ``N+1``'s decode.  Iterating the producer yields the segments in
    order; producer-side exceptions re-raise at the consumption point.
    ``close()`` cancels the thread promptly (the producer checks a stop
    flag each block) and joins it.
    """

    def __init__(self, segments: Iterable, depth: "int | None" = None):
        self._queue: queue.Queue = queue.Queue(
            maxsize=depth if depth is not None else stream_queue_depth()
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._produce, args=(iter(segments),),
            name="repro-stream-decode", daemon=True,
        )
        self._thread.start()

    def _produce(self, segments: Iterator) -> None:
        try:
            for segment in segments:
                while not self._stop.is_set():
                    try:
                        self._queue.put(segment, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if self._stop.is_set():
                    return
            self._put_forever(_DONE)
        except BaseException as error:  # propagate to the consumer
            self._put_forever(error)

    def _put_forever(self, item) -> None:
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return
            except queue.Full:
                continue

    def __iter__(self) -> Iterator:
        while True:
            item = self._queue.get()
            if item is _DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield item

    def close(self) -> None:
        self._stop.set()
        # Drain so a producer blocked on put() observes the stop flag.
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The TraceSet-shaped streaming façade
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class StreamingTraceSet:
    """A re-openable streaming trace with the :class:`TraceSet` surface
    the simulator needs (``is_streaming = True`` routes
    :func:`repro.sim.simulator.simulate` to the fast kernel's window loop).

    ``source_factory`` opens a fresh :class:`SegmentSource` per
    simulation run, so the set can drive many runs (an experiment grid)
    like a materialized set can.  ``regions`` must cover every accessed
    line — the builders guarantee it (the npz wrapper inherits the
    archive's map; the capture builder pre-scans), so per-run coverage
    validation is by construction.

    ``gaps_integral`` must be ``True`` only when *every* record's gap is
    provably integer-valued: the fast kernel then charges Compute once
    per window, which is exact only for integer sums.
    When in doubt leave it ``False`` — per-record charging in reference
    order is always bit-identical, just slower.
    """

    name: str
    num_cores: int
    regions: "list[tuple[Region, LineClass]]"
    source_factory: "Callable[[], SegmentSource]"
    provenance: "dict | None" = None
    gaps_integral: bool = False
    #: Total records/barriers when known (CLI reporting).
    total_records: "int | None" = None
    total_barriers: "int | None" = None

    is_streaming = True

    def __post_init__(self) -> None:
        self._bases = sorted(
            (region.base, region.end, line_class)
            for region, line_class in self.regions
        )
        self._starts = [base for base, _end, _cls in self._bases]

    def open_source(self) -> SegmentSource:
        """A fresh segment source positioned at the start of the trace."""
        return self.source_factory()

    # -- TraceSet surface ---------------------------------------------------
    def validate_coverage(self) -> None:
        """Coverage holds by construction (see the class docstring);
        the fast kernel additionally validates each window."""

    def classify(self, line_addr: int) -> LineClass:
        index = bisect.bisect_right(self._starts, line_addr) - 1
        if index >= 0:
            base, end, line_class = self._bases[index]
            if base <= line_addr < end:
                return line_class
        raise KeyError(f"line {line_addr:#x} not in any region")

    def release_decoded(self) -> None:
        """Nothing cached to release — windows die with their run."""

    def total_accesses(self) -> "int | None":
        return self.total_records

    def footprint_lines(self) -> int:
        return sum(region.size for region, _cls in self.regions)

    # -- builders -----------------------------------------------------------
    @classmethod
    def from_trace_set(
        cls,
        traces: TraceSet,
        chunk_records: "int | None" = None,
    ) -> "StreamingTraceSet":
        """Stream an in-memory set (bounds the *boxed* working set)."""
        gaps_integral = all(
            trace.gaps.dtype.kind in "iub"
            or bool(np.all(trace.gaps == np.floor(trace.gaps)))
            for trace in traces.cores
        )
        return cls(
            name=traces.name,
            num_cores=traces.num_cores,
            regions=traces.regions,
            source_factory=lambda: ArraySegmentSource(traces, chunk_records),
            provenance=traces.provenance,
            gaps_integral=gaps_integral,
            total_records=traces.total_accesses(),
            total_barriers=traces.cores[0].barrier_count() if traces.cores else 0,
        )

    @classmethod
    def from_champsim_bin(
        cls,
        path: "str | Path",
        num_cores: int = 1,
        line_bytes: int = 64,
        chunk_records: "int | None" = None,
        max_instructions: "int | None" = None,
        name: "str | None" = None,
        overlap: bool = True,
    ) -> "StreamingTraceSet":
        """Stream a binary ChampSim capture file directly (no ``.npz``).

        Pass 1 scans the capture once (bounded blocks) to infer the
        region map and record counts; each simulation run then re-opens
        and re-decodes it, with the decode running on a
        :class:`SegmentProducer` thread when ``overlap`` is on.  Peak
        memory is independent of capture length (footprint-bounded
        region inference aside).
        """
        from repro.workloads.champsim_bin import iter_access_segments
        from repro.workloads.imports import infer_regions

        path = Path(path)
        line_shift = line_bytes.bit_length() - 1
        chunk = stream_chunk_records(chunk_records)
        # Decode blocks sized so each core receives ~chunk records.
        block_instructions = max(1024, chunk * num_cores)

        scanner = _RegionScan(num_cores)
        total = 0
        for segment in iter_access_segments(
            path, num_cores, line_shift, block_instructions, max_instructions
        ):
            for core, (types, lines, _gaps) in enumerate(segment):
                scanner.observe(core, types, lines)
                total += len(types)
        regions = scanner.regions()
        if total == 0:
            from repro.workloads.imports import TraceImportError

            raise TraceImportError(path, None, "capture contains no memory accesses")

        def factory() -> SegmentSource:
            segments: Iterable = iter_access_segments(
                path, num_cores, line_shift, block_instructions, max_instructions
            )
            if overlap:
                segments = SegmentProducer(segments)
            return CaptureSegmentSource(segments, num_cores, chunk)

        from repro.workloads.imports import trace_content_hash

        return cls(
            name=name or path.name.split(".")[0],
            num_cores=num_cores,
            regions=regions,
            source_factory=factory,
            provenance={
                "format": "champsim-bin",
                "source": path.name,
                "source_sha256": trace_content_hash(path),
                "num_cores": num_cores,
                "split": "round-robin",
                "line_bytes": line_bytes,
                "records": total,
                "barriers": 0,
                "streamed": True,
            },
            gaps_integral=True,  # the decoder emits zero gaps
            total_records=total,
            total_barriers=0,
        )


class _RegionScan:
    """Incremental :func:`~repro.workloads.imports.infer_regions` input.

    Accumulates each core's unique data/written/fetched line sets across
    streamed segments (memory bounded by the *footprint*, not the trace
    length), then reconstructs the region map with the same
    classification rules the materializing importer uses.
    """

    def __init__(self, num_cores: int):
        self._data = [np.empty(0, dtype=np.int64) for _ in range(num_cores)]
        self._written = [np.empty(0, dtype=np.int64) for _ in range(num_cores)]
        self._fetched = [np.empty(0, dtype=np.int64) for _ in range(num_cores)]

    def observe(self, core: int, types: np.ndarray, lines: np.ndarray) -> None:
        data_mask = (types == AccessType.READ) | (types == AccessType.WRITE)
        if data_mask.any():
            self._data[core] = np.union1d(self._data[core], lines[data_mask])
        write_mask = types == AccessType.WRITE
        if write_mask.any():
            self._written[core] = np.union1d(self._written[core], lines[write_mask])
        fetch_mask = types == AccessType.IFETCH
        if fetch_mask.any():
            self._fetched[core] = np.union1d(self._fetched[core], lines[fetch_mask])

    def regions(self) -> "list[tuple[Region, LineClass]]":
        from repro.workloads.imports import infer_regions

        cores = []
        for data, written, fetched in zip(self._data, self._written, self._fetched):
            # Rebuild a minimal per-core trace carrying exactly the
            # (unique line, kind) facts infer_regions consumes: one READ
            # per data line, one WRITE per written line, one IFETCH per
            # fetched line.
            types = np.concatenate((
                np.full(len(data), int(AccessType.READ), dtype=np.uint8),
                np.full(len(written), int(AccessType.WRITE), dtype=np.uint8),
                np.full(len(fetched), int(AccessType.IFETCH), dtype=np.uint8),
            ))
            lines = np.concatenate((data, written, fetched))
            cores.append(CoreTrace(
                types=types, lines=lines,
                gaps=np.zeros(len(lines), dtype=np.uint16),
            ))
        return infer_regions(cores)


# ---------------------------------------------------------------------------
# Lock-step segment iteration (TraceSet.segments)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TraceSegment:
    """One lock-step window of a segmented trace.

    ``decoded`` holds a bounded :class:`DecodedTrace` per core (cores
    already exhausted get an empty one); ``start`` / ``stop`` give each
    core's global record offsets — the explicit handoff state a consumer
    needs to stitch windows (the fast kernel's window loop carries the
    rest — clocks, pending barriers — in its own per-core slots).
    """

    index: int
    decoded: "list[DecodedTrace]"
    start: "tuple[int, ...]"
    stop: "tuple[int, ...]"
    last: bool


def window_decoded(types: np.ndarray, lines: np.ndarray, gaps: np.ndarray) -> DecodedTrace:
    """A bounded-window :class:`DecodedTrace` over chunk arrays."""
    return DecodedTrace(CoreTrace(types=types, lines=lines, gaps=gaps))


def iter_segments(
    traces: TraceSet, chunk_records: "int | None" = None
) -> Iterator[TraceSegment]:
    """Yield a :class:`TraceSet` as bounded lock-step segments.

    Every core advances by up to ``chunk_records`` per segment; the
    yielded windows cover every record exactly once and carry the
    per-core global offsets, so ``concat(segments) == trace`` per core.
    This is the inspection-facing counterpart of the fast kernel's
    per-core starvation-driven pulls (which need no lock-step).
    """
    chunk = stream_chunk_records(chunk_records)
    lengths = [len(trace) for trace in traces.cores]
    offsets = [0] * traces.num_cores
    index = 0
    while any(offset < length for offset, length in zip(offsets, lengths)):
        start = tuple(offsets)
        decoded = []
        for core, trace in enumerate(traces.cores):
            begin = offsets[core]
            end = min(begin + chunk, lengths[core])
            offsets[core] = end
            decoded.append(window_decoded(
                trace.types[begin:end],
                trace.lines[begin:end],
                trace.gaps[begin:end],
            ))
        yield TraceSegment(
            index=index,
            decoded=decoded,
            start=start,
            stop=tuple(offsets),
            last=all(offset >= length for offset, length in zip(offsets, lengths)),
        )
        index += 1
