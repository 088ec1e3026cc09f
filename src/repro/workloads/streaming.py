"""Bounded-memory trace feeds for the fast kernel's window loop.

Real ChampSim captures are multi-GB, so the fast kernel
(:class:`repro.sim.kernel.FastKernel`) never takes a whole trace at
once: it pulls per-core **windows** of at most ``REPRO_STREAM_CHUNK``
records (default :data:`DEFAULT_CHUNK_RECORDS`) from a source, whatever
the set.

* :class:`SegmentSource` — the per-core pull interface:
  ``pull(core)`` returns the core's next bounded ``(types, lines, gaps)``
  arrays, or ``None`` when that core's stream is exhausted.  Two
  implementations:

  - :class:`ArraySegmentSource` slices an in-memory
    :class:`~repro.workloads.trace.TraceSet` (what
    :meth:`TraceSet.open_source` returns: zero-copy views, so the boxed
    window is bounded by the chunk, not the trace);
  - :class:`CaptureSegmentSource` decodes an external capture file
    block-by-block (the direct-capture path: nothing but fixed-size
    decode blocks and small per-core staging buffers ever exists).

* :class:`SegmentProducer` — the reader thread of both passes over a
  capture: it advances an iterator into a bounded queue
  (:data:`DEFAULT_QUEUE_DEPTH` deep).  During a run it decodes chunk
  ``N+1`` while the kernel simulates chunk ``N``; during the pass-1
  region scan it decompresses block ``N+1`` while the main thread
  expands, splits and scans block ``N``.

* :class:`StreamingTraceSet` — the :class:`TraceSet`-shaped façade
  (``is_streaming = True``) over a capture that is never materialized.
  It is *re-openable*: each simulation run calls :meth:`open_source`
  for a fresh source, so one streaming set can drive a whole experiment
  grid.

A capture's memory is a few fixed decode blocks
(:data:`repro.workloads.champsim_bin.BLOCK_INSTRUCTIONS` instructions
each) plus ``num_cores x chunk`` records of windows, independent of
trace length — see the README's "Streaming giga-traces" section for the
measured envelope.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import os
import queue
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass
from repro.workloads import champsim_bin
from repro.workloads.imports import (
    TraceImportError,
    regions_from_line_sets,
    sorted_unique,
    trace_content_hash,
)
from repro.workloads.trace import TraceSet, check_coverage, region_bounds

#: Default records per core per chunk.  At ~17 bytes/record of array
#: data plus the boxed window the fast kernel touches (~600 bytes/record
#: worst case), a 64-core machine stays well under a GB.
DEFAULT_CHUNK_RECORDS = 65536

#: Environment knob for the chunk size (documented in the README).
STREAM_CHUNK_ENV = "REPRO_STREAM_CHUNK"

#: Bounded-queue depth of the decode/simulate overlap.
DEFAULT_QUEUE_DEPTH = 2


def stream_chunk_records(chunk_records: "int | None" = None) -> int:
    """Resolve the chunk size: explicit value, else env, else default."""
    if chunk_records is None:
        raw = os.environ.get(STREAM_CHUNK_ENV)
        chunk_records = int(raw) if raw else DEFAULT_CHUNK_RECORDS
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    return chunk_records


# ---------------------------------------------------------------------------
# Segment sources
# ---------------------------------------------------------------------------

#: One core's chunk: parallel (types uint8, lines int64, gaps) arrays.
CoreChunk = "tuple[np.ndarray, np.ndarray, np.ndarray]"


class SegmentSource:
    """Per-core bounded record feed for one simulation run.

    ``pull(core)`` hands the fast kernel's window loop the next window of
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

    The source behind :meth:`TraceSet.open_source`.  The backing arrays
    stay as-is (compact numpy, no boxing, never frozen); each pull is a
    zero-copy slice, so the only per-window cost is the boxed
    :class:`~repro.workloads.trace.DecodedTrace` the fast kernel builds,
    bounded by the chunk size instead of the trace length.
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
    A pull hands over at most ``chunk_records`` records: whole staged
    chunks while they fit, or the head of a larger one, whose rest
    stays staged.

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
        cap = self.chunk_records
        count = size = 0
        while count < len(staged) and size + len(staged[count][0]) <= cap:
            size += len(staged[count][0])
            count += 1
        if count == 1:
            return staged.pop(0)
        if count:
            # Consumption skew staged several chunks: one window of them.
            taken, staged[:count] = staged[:count], []
            return tuple(np.concatenate(arrays) for arrays in zip(*taken))
        # The head chunk alone exceeds a window: split it.
        head = staged[0]
        staged[0] = tuple(array[cap:] for array in head)
        return tuple(array[:cap] for array in head)

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

    def __init__(self, segments: Iterable, depth: int = DEFAULT_QUEUE_DEPTH):
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
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
    the simulator needs (``is_streaming = True`` makes
    :func:`repro.sim.simulator.simulate` run the fast kernel even when
    the reference one was asked for: the reference loop indexes whole
    traces).

    ``source_factory`` opens a fresh :class:`SegmentSource` per
    simulation run, so the set can drive many runs (an experiment grid)
    like a materialized set can.  ``regions`` must cover every accessed
    line — the capture builder pre-scans for it, and every source
    :meth:`open_source` returns checks each chunk as it is pulled.

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

    @functools.cached_property
    def _bounds(self) -> "tuple[np.ndarray, np.ndarray]":
        """:func:`region_bounds` of the map, shared by every source."""
        return region_bounds(self.regions)

    @functools.cached_property
    def _class_index(self) -> "tuple[list[int], list[tuple[int, int, LineClass]]]":
        """Sorted region starts and ``(base, end, class)`` entries for
        :meth:`classify`, built on first use (only the profiler asks)."""
        bases = sorted(
            (region.base, region.end, line_class)
            for region, line_class in self.regions
        )
        return [base for base, _end, _cls in bases], bases

    def open_source(self) -> SegmentSource:
        """A fresh segment source positioned at the start of the trace.

        A stream cannot be validated up front without consuming it, so
        the source checks each chunk against the region map as it is
        pulled.
        """
        source = self.source_factory()
        pull = source.pull
        name = self.name
        starts, ends = self._bounds

        def checked_pull(core):
            chunk = pull(core)
            if chunk is not None:
                check_coverage(name, starts, ends, core, chunk[0], chunk[1])
            return chunk

        source.pull = checked_pull
        return source

    # -- TraceSet surface ---------------------------------------------------
    def validate_coverage(self) -> None:
        """A no-op: :meth:`open_source` checks each chunk instead."""

    def classify(self, line_addr: int) -> LineClass:
        starts, bases = self._class_index
        index = bisect.bisect_right(starts, line_addr) - 1
        if index >= 0:
            base, end, line_class = bases[index]
            if base <= line_addr < end:
                return line_class
        raise KeyError(f"line {line_addr:#x} not in any region")

    def total_accesses(self) -> "int | None":
        return self.total_records

    def footprint_lines(self) -> int:
        return sum(region.size for region, _cls in self.regions)

    # -- builders -----------------------------------------------------------
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

        Pass 1 scans the capture once to infer the region map and
        record counts; each simulation run then re-opens and re-decodes
        it.  With ``overlap`` on, a :class:`SegmentProducer` thread
        reads ahead in both passes: in pass 1 it decompresses raw
        instruction blocks while this thread expands and scans them, in
        a run it does the whole decode.  Both passes decode in fixed
        :data:`~repro.workloads.champsim_bin.BLOCK_INSTRUCTIONS` blocks,
        whatever the core count; ``chunk_records`` only caps the
        windows a run pulls.  Peak memory is independent of capture
        length (footprint-bounded region inference aside).
        """
        path = Path(path)
        line_shift = line_bytes.bit_length() - 1
        chunk = stream_chunk_records(chunk_records)
        block_instructions = champsim_bin.BLOCK_INSTRUCTIONS

        # Both decoders are looked up at call time, so a patched module
        # attribute reaches each pass.
        blocks: Iterable = champsim_bin.iter_instruction_blocks(
            path, block_instructions, max_instructions
        )
        if overlap:
            blocks = SegmentProducer(blocks)
        scanner = _RegionScan(num_cores)
        total = first = 0
        with contextlib.closing(blocks):
            for block in blocks:
                segment = champsim_bin.split_block(block, first, num_cores, line_shift)
                first += len(block)
                for core, (types, lines, _gaps) in enumerate(segment):
                    scanner.observe(core, types, lines)
                    total += len(types)
        regions = scanner.regions()
        if total == 0:
            raise TraceImportError(path, None, "capture contains no memory accesses")

        def factory() -> SegmentSource:
            segments: Iterable = champsim_bin.iter_access_segments(
                path, num_cores, line_shift, block_instructions, max_instructions
            )
            if overlap:
                segments = SegmentProducer(segments)
            return CaptureSegmentSource(segments, num_cores, chunk)

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
    """Incremental :func:`~repro.workloads.imports.infer_regions`.

    Accumulates each core's unique data/written/fetched line sets across
    streamed segments (memory bounded by the *footprint*, not the trace
    length), then classifies them with
    :func:`~repro.workloads.imports.regions_from_line_sets`, as the
    materializing importer does.  Each block's unique lines are queued
    and merged only once the queue outgrows the merged set, so the
    scan's cost does not grow with the block count.
    """

    def __init__(self, num_cores: int):
        # Per core: the data, written and fetched line sets.
        self._sets = [[_LineSet() for _kind in range(3)] for _ in range(num_cores)]

    def observe(self, core: int, types: np.ndarray, lines: np.ndarray) -> None:
        write_mask = types == AccessType.WRITE
        masks = (
            (types == AccessType.READ) | write_mask,
            write_mask,
            types == AccessType.IFETCH,
        )
        for line_set, mask in zip(self._sets[core], masks):
            if mask.any():
                line_set.add(lines[mask])

    def regions(self) -> "list[tuple[Region, LineClass]]":
        data, written, fetched = (
            [core_sets[kind].lines() for core_sets in self._sets]
            for kind in range(3)
        )
        return regions_from_line_sets(data, written, fetched)


class _LineSet:
    """Sorted unique lines, grown block by block and merged in batches."""

    def __init__(self) -> None:
        self.merged, self.queue, self.queued = np.empty(0, dtype=np.int64), [], 0

    def add(self, lines: np.ndarray) -> None:
        self.queue.append(sorted_unique(lines))
        self.queued += len(self.queue[-1])
        if self.queued >= len(self.merged):
            self.lines()

    def lines(self) -> np.ndarray:
        if self.queue:
            self.merged = sorted_unique(np.concatenate([self.merged, *self.queue]))
            self.queue, self.queued = [], 0
        return self.merged

