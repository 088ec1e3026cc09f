"""Streaming pipeline units: segment sources, the decode thread, the
façade, and the chunk-boundary handoff cases that must stay bit-exact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.types import AccessType
from repro.sim.simulator import simulate
from repro.workloads.streaming import (
    ArraySegmentSource,
    CaptureSegmentSource,
    SegmentProducer,
    StreamingTraceSet,
    iter_segments,
    stream_chunk_records,
    stream_queue_depth,
    stream_threshold_bytes,
)

from tests.helpers import FixedLatencyEngine, records_trace_set

R, W, B = AccessType.READ, AccessType.WRITE, AccessType.BARRIER


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

    def test_queue_depth_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_QUEUE", "5")
        assert stream_queue_depth() == 5
        monkeypatch.setenv("REPRO_STREAM_QUEUE", "0")
        with pytest.raises(ValueError):
            stream_queue_depth()

    def test_threshold_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "-1")
        assert stream_threshold_bytes() == -1
        monkeypatch.delenv("REPRO_STREAM_THRESHOLD")
        assert stream_threshold_bytes() == 64 * 1024 * 1024


class TestIterSegments:
    def test_covers_every_record_exactly_once(self):
        traces = records_trace_set([
            [(R, i, 0) for i in range(10)],
            [(W, 100 + i, 0) for i in range(7)],
        ])
        segments = list(iter_segments(traces, chunk_records=4))
        assert [seg.index for seg in segments] == [0, 1, 2]
        assert segments[-1].last and not segments[0].last
        for core, trace in enumerate(traces.cores):
            lines = [
                line
                for seg in segments
                for line in seg.decoded[core].lines
            ]
            assert lines == list(trace.lines)

    def test_offsets_are_the_handoff_state(self):
        traces = records_trace_set([[(R, i, 0) for i in range(5)]])
        segments = list(iter_segments(traces, chunk_records=2))
        assert [(s.start, s.stop) for s in segments] == [
            ((0,), (2,)), ((2,), (4,)), ((4,), (5,)),
        ]

    def test_exhausted_core_gets_empty_windows(self):
        traces = records_trace_set([
            [(R, 1, 0)],
            [(R, 2, 0), (R, 3, 0), (R, 4, 0)],
        ])
        segments = list(iter_segments(traces, chunk_records=1))
        assert [seg.decoded[0].length for seg in segments] == [1, 0, 0]
        assert [seg.decoded[1].length for seg in segments] == [1, 1, 1]

    def test_trace_set_segments_method(self):
        traces = records_trace_set([[(R, 1, 0), (R, 2, 0)]])
        assert sum(seg.decoded[0].length for seg in traces.segments(1)) == 2


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
        streamed = StreamingTraceSet.from_trace_set(traces, chunk_records=2)
        assert streamed.is_streaming
        assert streamed.num_cores == traces.num_cores
        assert streamed.total_accesses() == traces.total_accesses()
        assert streamed.total_barriers == 1
        assert streamed.footprint_lines() == traces.footprint_lines()
        assert streamed.classify(1) == traces.classify(1)
        with pytest.raises(KeyError):
            streamed.classify(1 << 20)
        streamed.validate_coverage()
        streamed.release_decoded()

    def test_gaps_integral_reflects_the_arrays(self):
        import dataclasses

        traces = records_trace_set([[(R, 1, 2)]])
        assert StreamingTraceSet.from_trace_set(traces).gaps_integral
        frac = dataclasses.replace(
            traces,
            cores=[dataclasses.replace(
                traces.cores[0], gaps=np.array([0.5])
            )],
        )
        assert not StreamingTraceSet.from_trace_set(frac).gaps_integral

    def test_reopenable_across_runs(self):
        traces = records_trace_set([[(R, i, 1) for i in range(6)]])
        streamed = StreamingTraceSet.from_trace_set(traces, chunk_records=2)
        first = simulate(FixedLatencyEngine(1), streamed).to_dict()
        second = simulate(FixedLatencyEngine(1), streamed).to_dict()
        assert first == second


def _verify_boundary(per_core, chunk_records, num_cores=None):
    """Both kernels, streamed at ``chunk_records``, must be
    bit-identical (stats *and* engine call log) to materialized."""
    traces = records_trace_set(per_core)
    num_cores = num_cores or traces.num_cores
    streamed = StreamingTraceSet.from_trace_set(traces, chunk_records)
    for kernel in ("reference", "fast"):
        materialized = FixedLatencyEngine(num_cores)
        expected = simulate(materialized, traces, kernel=kernel).to_dict()
        engine = FixedLatencyEngine(num_cores)
        got = simulate(engine, streamed, kernel=kernel).to_dict()
        assert got == expected, kernel
        assert engine.calls == materialized.calls, kernel


class TestChunkBoundaryHandoff:
    """The satellite cases: every chunk-edge shape stays bit-identical."""

    def test_run_spanning_chunk_edge(self):
        # 10 same-line hits per core: a single L1-hit run that a chunk
        # of 3 splits mid-run three times.
        per_core = [
            [(R, 1 + core, 1) for _ in range(10)] for core in range(2)
        ]
        _verify_boundary(per_core, chunk_records=3)

    def test_barrier_exactly_on_chunk_edge(self):
        per_core = [
            [(R, 1, 1), (R, 2, 1), (B, 0, 0), (R, 3, 1), (R, 4, 1)],
            [(W, 5, 2), (W, 6, 2), (B, 0, 0), (W, 7, 2), (W, 8, 2)],
        ]
        # chunk=3 puts the barrier at each first window's last record.
        _verify_boundary(per_core, chunk_records=3)

    def test_barrier_first_record_of_chunk(self):
        per_core = [
            [(R, 1, 1), (R, 2, 1), (B, 0, 0), (R, 3, 1)],
            [(W, 5, 9), (W, 6, 9), (B, 0, 0), (W, 7, 9)],
        ]
        _verify_boundary(per_core, chunk_records=2)

    def test_empty_core(self):
        per_core = [
            [(R, 1, 1), (R, 2, 1), (R, 3, 1)],
            [],
        ]
        _verify_boundary(per_core, chunk_records=2)

    def test_single_record_final_chunk(self):
        per_core = [[(R, i, 1) for i in range(7)]]
        _verify_boundary(per_core, chunk_records=3)

    def test_chunk_of_one(self):
        per_core = [
            [(R, 1, 1), (B, 0, 0), (W, 2, 3)],
            [(W, 9, 4), (B, 0, 0), (R, 8, 0)],
        ]
        _verify_boundary(per_core, chunk_records=1)
