"""Trace container semantics."""

import numpy as np
import pytest

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass
from repro.workloads.trace import CoreTrace, TraceSet


def _core_trace(n=4, barrier_positions=()):
    types = np.full(n, AccessType.READ, dtype=np.uint8)
    for position in barrier_positions:
        types[position] = AccessType.BARRIER
    return CoreTrace(types, np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.uint16))


class TestCoreTrace:
    def test_length(self):
        assert len(_core_trace(7)) == 7

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            CoreTrace(
                np.zeros(3, dtype=np.uint8),
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.uint16),
            )

    def test_barrier_count(self):
        assert _core_trace(5, barrier_positions=(1, 3)).barrier_count() == 2


class TestTraceSet:
    def test_classify(self):
        regions = [
            (Region(0, 10), LineClass.PRIVATE),
            (Region(10, 10), LineClass.SHARED_RO),
            (Region(64, 10), LineClass.INSTRUCTION),
        ]
        traces = TraceSet("t", [_core_trace()], regions)
        assert traces.classify(5) == LineClass.PRIVATE
        assert traces.classify(10) == LineClass.SHARED_RO
        assert traces.classify(19) == LineClass.SHARED_RO
        assert traces.classify(64) == LineClass.INSTRUCTION

    def test_classify_gap_raises(self):
        traces = TraceSet("t", [_core_trace()], [(Region(0, 10), LineClass.PRIVATE)])
        with pytest.raises(KeyError):
            traces.classify(50)

    def test_total_accesses_excludes_barriers(self):
        traces = TraceSet(
            "t",
            [_core_trace(5, barrier_positions=(2,)), _core_trace(5, barrier_positions=(0,))],
            [(Region(0, 100), LineClass.PRIVATE)],
        )
        assert traces.total_accesses() == 8

    def test_footprint(self):
        traces = TraceSet(
            "t", [_core_trace()],
            [(Region(0, 10), LineClass.PRIVATE), (Region(64, 6), LineClass.SHARED_RO)],
        )
        assert traces.footprint_lines() == 16

    def test_unequal_barriers_rejected(self):
        with pytest.raises(ValueError, match="barrier"):
            TraceSet(
                "t",
                [_core_trace(5, barrier_positions=(1,)), _core_trace(5)],
                [(Region(0, 100), LineClass.PRIVATE)],
            )

    def test_gaps_integral_follows_in_place_writes(self):
        trace = CoreTrace(
            np.zeros(2, dtype=np.uint8), np.arange(2, dtype=np.int64),
            np.array([1.0, 2.0]),
        )
        traces = TraceSet("t", [trace], [(Region(0, 10), LineClass.PRIVATE)])
        assert traces.gaps_integral
        trace.gaps[1] = 2.5
        assert not traces.gaps_integral
