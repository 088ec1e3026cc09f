"""Streaming pipeline units: segment sources, the decode thread, the
façade, and the chunk-boundary handoff cases that must stay bit-exact."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass
from repro.sim.simulator import simulate
from repro.workloads import champsim_bin, streaming
from repro.workloads.imports import ImportOptions, import_trace, infer_regions
from repro.workloads.streaming import (
    DEFAULT_QUEUE_DEPTH,
    ArraySegmentSource,
    CaptureSegmentSource,
    SegmentProducer,
    StreamingTraceSet,
    _RegionScan,
    stream_chunk_records,
)
from repro.workloads.trace import CoreTrace, TraceSet

from tests.helpers import FixedLatencyEngine, records_trace_set, streamed_view

R, W, B = AccessType.READ, AccessType.WRITE, AccessType.BARRIER
I = AccessType.IFETCH


def _chunk(types_lines):
    types = np.array([t for t, _l in types_lines], dtype=np.uint8)
    lines = np.array([l for _t, l in types_lines], dtype=np.int64)
    return types, lines, np.zeros(len(lines), dtype=np.uint16)


class TestKnobs:
    def test_chunk_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "128")
        assert stream_chunk_records(7) == 7
        assert stream_chunk_records() == 128

    def test_chunk_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM_CHUNK", raising=False)
        assert stream_chunk_records() == 65536

    def test_chunk_rejects_non_positive(self):
        with pytest.raises(ValueError):
            stream_chunk_records(0)

    def test_queue_depth_is_a_constant(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_QUEUE", "5")  # no longer read
        producer = SegmentProducer(iter([]))
        assert producer._queue.maxsize == DEFAULT_QUEUE_DEPTH == 2
        producer.close()


class TestArraySegmentSource:
    def test_bounded_pulls_in_order(self):
        traces = records_trace_set([[(R, i, 0) for i in range(5)]])
        source = ArraySegmentSource(traces, chunk_records=2)
        sizes = []
        lines = []
        while True:
            chunk = source.pull(0)
            if chunk is None:
                break
            sizes.append(len(chunk[0]))
            lines.extend(chunk[1])
        assert sizes == [2, 2, 1]
        assert lines == list(range(5))

    def test_pulls_are_views_not_copies(self):
        traces = records_trace_set([[(R, i, 0) for i in range(4)]])
        source = ArraySegmentSource(traces, chunk_records=2)
        chunk = source.pull(0)
        assert chunk[1].base is not None  # a slice view of the backing array

    def test_per_core_independent_progress(self):
        traces = records_trace_set([
            [(R, 1, 0), (R, 2, 0)],
            [(R, 3, 0)],
        ])
        source = ArraySegmentSource(traces, chunk_records=1)
        assert source.pull(1) is not None
        assert source.pull(1) is None
        assert source.pull(0) is not None
        assert source.pull(0) is not None
        assert source.pull(0) is None


class TestCaptureSegmentSource:
    def test_stages_and_drains_lock_step_segments(self):
        segments = [
            [_chunk([(R, 1), (R, 2)]), _chunk([(W, 10)])],
            [_chunk([(R, 3)]), _chunk([(W, 11), (W, 12)])],
        ]
        source = CaptureSegmentSource(iter(segments), num_cores=2)
        assert list(source.pull(0)[1]) == [1, 2]
        # Core 1's first chunk was staged while core 0 advanced.
        assert list(source.pull(1)[1]) == [10]
        assert list(source.pull(1)[1]) == [11, 12]
        assert source.pull(1) is None
        assert list(source.pull(0)[1]) == [3]
        assert source.pull(0) is None

    def test_skewed_consumption_concatenates_staged_chunks(self):
        segments = [
            [_chunk([(R, 1)]), _chunk([(W, 10)])],
            [_chunk([(R, 2)]), _chunk([(W, 11)])],
            [_chunk([(R, 3)]), _chunk([(W, 12)])],
        ]
        source = CaptureSegmentSource(iter(segments), num_cores=2)
        for _ in range(3):
            assert source.pull(0) is not None
        # Core 1's three staged blocks arrive as one window.
        assert list(source.pull(1)[1]) == [10, 11, 12]

    def test_empty_core_chunks_are_skipped_not_staged(self):
        segments = [[_chunk([(R, 1)]), _chunk([])]]
        source = CaptureSegmentSource(iter(segments), num_cores=2)
        assert source.pull(1) is None
        assert list(source.pull(0)[1]) == [1]

    def test_wrong_core_count_rejected(self):
        source = CaptureSegmentSource(iter([[_chunk([(R, 1)])]]), num_cores=2)
        with pytest.raises(ValueError, match="1 core chunks"):
            source.pull(0)

    def test_close_forwards_to_feed(self):
        closed = []

        class Feed:
            def __iter__(self):
                return iter([])

            def close(self):
                closed.append(True)

        feed = Feed()
        source = CaptureSegmentSource(feed, num_cores=1)
        source._segments = feed  # the iterator protocol loses .close
        source.close()
        assert closed == [True]


def _drain(source):
    """Pull every core round-robin to exhaustion: (core, window) list."""
    windows = []
    live = set(range(source.num_cores))
    while live:
        for core in sorted(live):
            window = source.pull(core)
            if window is None:
                live.discard(core)
            else:
                windows.append((core, window))
    return windows


class TestWindowCap:
    """A pull hands over at most ``chunk_records`` records, whatever the
    decode block size and the consumption skew."""

    def test_oversized_chunk_is_split_and_the_rest_staged(self):
        chunk = _chunk([(R, line) for line in range(10)])
        source = CaptureSegmentSource(iter([[chunk]]), num_cores=1, chunk_records=4)
        windows = [list(window[1]) for _core, window in _drain(source)]
        assert windows == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_skewed_staging_concatenates_only_up_to_the_cap(self):
        segments = [
            [_chunk([(R, block)]), _chunk([(W, 10 * block + k) for k in range(3)])]
            for block in range(3)
        ]
        source = CaptureSegmentSource(iter(segments), num_cores=2, chunk_records=7)
        for _ in range(3):
            assert source.pull(0) is not None
        # Core 1 has three 3-record chunks staged: 6 fit a window, 3 wait.
        assert list(source.pull(1)[1]) == [0, 1, 2, 10, 11, 12]
        assert list(source.pull(1)[1]) == [20, 21, 22]
        assert source.pull(1) is None

    @given(
        sizes=st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3),
                       max_size=8),
        cap=st.integers(1, 20),
        order=st.lists(st.integers(0, 2), max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_window_fits_the_cap(self, sizes, cap, order):
        segments, expected, counter = [], [[], [], []], 0
        for block in sizes:
            segment = []
            for core, size in enumerate(block):
                lines = list(range(counter, counter + size))
                counter += size
                expected[core].extend(lines)
                segment.append(_chunk([(R, line) for line in lines]))
            segments.append(segment)
        source = CaptureSegmentSource(iter(segments), num_cores=3, chunk_records=cap)
        got = [[], [], []]
        # A skewed pull order first, then drain what is left.
        pulled = [(core, source.pull(core)) for core in order]
        pulled += _drain(source)
        for core, window in pulled:
            if window is None:
                continue
            assert 1 <= len(window[0]) <= cap
            assert len(window[0]) == len(window[1]) == len(window[2])
            got[core].extend(window[1].tolist())
        assert got == expected


@pytest.fixture(scope="module")
def three_block_capture(tmp_path_factory):
    """A capture one record past two default decode blocks."""
    path = tmp_path_factory.mktemp("capture") / "blocks.trace.xz"
    instructions = 2 * champsim_bin.BLOCK_INSTRUCTIONS + 5
    champsim_bin.synthesize_champsim_bin(path, instructions, seed=2, footprint_lines=4096)
    return path, instructions


class TestFixedDecodeBlocks:
    @pytest.mark.parametrize("chunk", [None, 1000])
    @pytest.mark.parametrize("num_cores", [1, 4, 16, 64])
    def test_no_block_exceeds_the_decode_block(
        self, three_block_capture, num_cores, chunk, monkeypatch
    ):
        path, instructions = three_block_capture
        monkeypatch.delenv("REPRO_STREAM_CHUNK", raising=False)
        blocks = []
        decode = champsim_bin.iter_instruction_blocks

        def recorded(*args, **kwargs):
            for block in decode(*args, **kwargs):
                blocks.append(len(block))
                yield block

        monkeypatch.setattr(champsim_bin, "iter_instruction_blocks", recorded)
        streamed = StreamingTraceSet.from_champsim_bin(
            path, num_cores=num_cores, chunk_records=chunk
        )
        source = streamed.open_source()
        try:
            windows = _drain(source)
        finally:
            source.close()
        # Both passes, the scan and the run's feed, read fixed blocks.
        assert max(blocks) == champsim_bin.BLOCK_INSTRUCTIONS
        assert sum(blocks) == 2 * instructions
        cap = stream_chunk_records(chunk)
        assert max(len(window[0]) for _core, window in windows) <= cap
        assert sum(len(window[0]) for _core, window in windows) == streamed.total_records

    def test_block_size_is_read_at_call_time(self, three_block_capture, monkeypatch):
        path, _instructions = three_block_capture
        blocks = []
        decode = champsim_bin.iter_instruction_blocks

        def recorded(path, block_instructions, *args, **kwargs):
            blocks.append(block_instructions)
            return decode(path, block_instructions, *args, **kwargs)

        monkeypatch.setattr(champsim_bin, "iter_instruction_blocks", recorded)
        monkeypatch.setattr(champsim_bin, "BLOCK_INSTRUCTIONS", 4096)
        streamed = StreamingTraceSet.from_champsim_bin(path, num_cores=4, overlap=False)
        source = streamed.open_source()
        source.pull(0)
        source.close()
        assert blocks == [4096, 4096]


def _decode_threads() -> set:
    return {
        thread for thread in threading.enumerate()
        if thread.name == "repro-stream-decode"
    }


class TestPassOneReader:
    """Pass 1 decompresses on the reader thread; its results must not
    depend on that."""

    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("block", [1, 7, 4096, None])
    def test_overlap_scan_equals_serial_scan(self, tmp_path, monkeypatch, block, capped):
        if block is None:
            block = champsim_bin.BLOCK_INSTRUCTIONS
        monkeypatch.setattr(champsim_bin, "BLOCK_INSTRUCTIONS", block)
        path = tmp_path / "cap.trace.xz"
        champsim_bin.synthesize_champsim_bin(
            path, max(2 * block + 5, 300), seed=block, footprint_lines=2048,
            write_fraction=0.3,
        )
        # A budget that lands mid-block (block 1 has no middle).
        cap = block + block // 2 + 1 if capped else None
        before = _decode_threads()
        serial = StreamingTraceSet.from_champsim_bin(
            path, num_cores=4, max_instructions=cap, overlap=False
        )
        overlapped = StreamingTraceSet.from_champsim_bin(
            path, num_cores=4, max_instructions=cap, overlap=True
        )
        assert _decode_threads() <= before
        assert overlapped.regions == serial.regions
        assert overlapped.total_records == serial.total_records
        assert overlapped.provenance == serial.provenance
        imported = import_trace(
            path, fmt="champsim-bin",
            options=ImportOptions(num_cores=4, max_records=cap),
        )
        assert overlapped.regions == imported.regions
        assert overlapped.total_records == imported.total_accesses()

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(champsim_bin, "BLOCK_INSTRUCTIONS", 7)

    def test_truncated_capture_raises(self, tmp_path, small_blocks):
        path = tmp_path / "cap.trace"
        champsim_bin.synthesize_champsim_bin(path, 100, seed=3, footprint_lines=512)
        path.write_bytes(path.read_bytes()[:-7])
        before = _decode_threads()
        with pytest.raises(champsim_bin.ChampSimBinError, match="truncated"):
            StreamingTraceSet.from_champsim_bin(path, num_cores=4, overlap=True)
        assert _decode_threads() <= before

    def test_corrupt_capture_raises(self, tmp_path, small_blocks):
        path = tmp_path / "cap.trace.xz"
        champsim_bin.synthesize_champsim_bin(path, 3000, seed=3, footprint_lines=512)
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        data[middle:middle + 64] = bytes(64)
        path.write_bytes(bytes(data))
        before = _decode_threads()
        with pytest.raises(champsim_bin.ChampSimBinError, match="corrupt"):
            StreamingTraceSet.from_champsim_bin(path, num_cores=4, overlap=True)
        assert _decode_threads() <= before

    def test_reader_is_closed_when_the_scan_raises(self, tmp_path, small_blocks, monkeypatch):
        path = tmp_path / "cap.trace.xz"
        champsim_bin.synthesize_champsim_bin(path, 3000, seed=3, footprint_lines=512)
        split = champsim_bin.split_block
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("scan failed")
            return split(*args)

        monkeypatch.setattr(champsim_bin, "split_block", failing)
        before = _decode_threads()
        with pytest.raises(RuntimeError, match="scan failed"):
            StreamingTraceSet.from_champsim_bin(path, num_cores=4, overlap=True)
        assert _decode_threads() <= before


class TestRegionScan:
    @given(
        cores=st.lists(
            st.lists(st.tuples(st.sampled_from([R, W, I]), st.integers(0, 40)),
                     max_size=40),
            min_size=1, max_size=4,
        ),
        block=st.integers(1, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_amortized_scan_equals_infer_regions(self, cores, block):
        traces = [
            CoreTrace(
                types=np.array([int(t) for t, _l in records], dtype=np.uint8),
                lines=np.array([line for _t, line in records], dtype=np.int64),
                gaps=np.zeros(len(records), dtype=np.uint16),
            )
            for records in cores
        ]
        scan = _RegionScan(len(traces))
        longest = max(len(trace) for trace in traces)
        for start in range(0, longest, block):  # lock-step blocks, like a feed
            for core, trace in enumerate(traces):
                scan.observe(core, trace.types[start:start + block],
                             trace.lines[start:start + block])
        assert scan.regions() == infer_regions(traces)


class TestSegmentProducer:
    def test_yields_in_order(self):
        producer = SegmentProducer(iter(range(20)), depth=2)
        assert list(producer) == list(range(20))
        producer.close()

    def test_propagates_producer_exceptions(self):
        def broken():
            yield 1
            raise RuntimeError("decode failed")

        producer = SegmentProducer(broken(), depth=2)
        with pytest.raises(RuntimeError, match="decode failed"):
            list(producer)
        producer.close()

    def test_close_unblocks_a_full_queue(self):
        producer = SegmentProducer(iter(range(1000)), depth=1)
        next(iter(producer))
        producer.close()  # must not hang on the blocked put
        assert not producer._thread.is_alive()


class TestStreamingTraceSet:
    def test_surface_mirrors_the_materialized_set(self):
        traces = records_trace_set([
            [(R, 1, 0), (B, 0, 0), (W, 2, 0)],
            [(R, 3, 0), (B, 0, 0), (W, 4, 0)],
        ])
        streamed = streamed_view(traces, chunk_records=2)
        assert streamed.is_streaming and not traces.is_streaming
        assert streamed.num_cores == traces.num_cores
        assert streamed.total_accesses() == traces.total_accesses()
        assert streamed.total_barriers == 1
        assert streamed.footprint_lines() == traces.footprint_lines()
        assert streamed.classify(1) == traces.classify(1)
        with pytest.raises(KeyError):
            streamed.classify(1 << 20)
        streamed.validate_coverage()

    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 6),
                      st.sampled_from(list(LineClass))),
            max_size=12,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_lazy_classify_matches_the_materialized_set(self, spans, order):
        regions, base = [], 0
        for gap, size, line_class in spans:
            base += gap
            regions.append((Region(base, size), line_class))
            base += size
        order.shuffle(regions)  # the index must not rely on map order
        materialized = TraceSet("r", [], regions)
        streamed = StreamingTraceSet(
            name="r", num_cores=1, regions=regions, source_factory=lambda: None
        )
        assert "_class_index" not in vars(streamed)  # built on first use
        for line in range(base + 3):
            try:
                expected = materialized.classify(line)
            except KeyError:
                with pytest.raises(KeyError):
                    streamed.classify(line)
            else:
                assert streamed.classify(line) == expected

    def test_region_bounds_are_built_once_per_set(self, monkeypatch):
        calls = []
        bounds = streaming.region_bounds

        def counted(regions):
            calls.append(regions)
            return bounds(regions)

        monkeypatch.setattr(streaming, "region_bounds", counted)
        traces = records_trace_set([[(R, i, 1) for i in range(6)]])
        streamed = streamed_view(traces, chunk_records=2)
        for _run in range(3):
            simulate(FixedLatencyEngine(1), streamed)
        assert len(calls) == 1

    def test_gaps_integral_reflects_the_arrays(self):
        import dataclasses

        traces = records_trace_set([[(R, 1, 2)]])
        assert traces.gaps_integral
        frac = dataclasses.replace(
            traces,
            cores=[dataclasses.replace(
                traces.cores[0], gaps=np.array([0.5])
            )],
        )
        assert not frac.gaps_integral

    def test_reopenable_across_runs(self):
        traces = records_trace_set([[(R, i, 1) for i in range(6)]])
        streamed = streamed_view(traces, chunk_records=2)
        first = simulate(FixedLatencyEngine(1), streamed).to_dict()
        second = simulate(FixedLatencyEngine(1), streamed).to_dict()
        assert first == second


def _verify_boundary(per_core, chunk_records, monkeypatch):
    """The fast kernel, pulling the set in ``chunk_records`` windows,
    must be bit-identical (stats *and* engine call log) to the reference
    kernel, which indexes whole traces."""
    traces = records_trace_set(per_core)
    num_cores = traces.num_cores
    reference = FixedLatencyEngine(num_cores)
    expected = simulate(reference, traces, kernel="reference").to_dict()
    monkeypatch.setenv("REPRO_STREAM_CHUNK", str(chunk_records))
    engine = FixedLatencyEngine(num_cores)
    got = simulate(engine, traces, kernel="fast").to_dict()
    assert got == expected
    assert engine.calls == reference.calls


class TestChunkBoundaryHandoff:
    """Every chunk-edge shape of a materialized set stays bit-identical."""

    def test_run_spanning_chunk_edge(self, monkeypatch):
        # 10 same-line hits per core: a single L1-hit run that a chunk
        # of 3 splits mid-run three times.
        per_core = [
            [(R, 1 + core, 1) for _ in range(10)] for core in range(2)
        ]
        _verify_boundary(per_core, 3, monkeypatch)

    def test_barrier_exactly_on_chunk_edge(self, monkeypatch):
        per_core = [
            [(R, 1, 1), (R, 2, 1), (B, 0, 0), (R, 3, 1), (R, 4, 1)],
            [(W, 5, 2), (W, 6, 2), (B, 0, 0), (W, 7, 2), (W, 8, 2)],
        ]
        # chunk=3 puts the barrier at each first window's last record.
        _verify_boundary(per_core, 3, monkeypatch)

    def test_barrier_first_record_of_chunk(self, monkeypatch):
        per_core = [
            [(R, 1, 1), (R, 2, 1), (B, 0, 0), (R, 3, 1)],
            [(W, 5, 9), (W, 6, 9), (B, 0, 0), (W, 7, 9)],
        ]
        _verify_boundary(per_core, 2, monkeypatch)

    def test_empty_core(self, monkeypatch):
        per_core = [
            [(R, 1, 1), (R, 2, 1), (R, 3, 1)],
            [],
        ]
        _verify_boundary(per_core, 2, monkeypatch)

    def test_single_record_final_chunk(self, monkeypatch):
        per_core = [[(R, i, 1) for i in range(7)]]
        _verify_boundary(per_core, 3, monkeypatch)

    def test_chunk_of_one(self, monkeypatch):
        per_core = [
            [(R, 1, 1), (B, 0, 0), (W, 2, 3)],
            [(W, 9, 4), (B, 0, 0), (R, 8, 0)],
        ]
        _verify_boundary(per_core, 1, monkeypatch)
