"""Trace-driven simulation loop: ordering, barriers, completion."""

import numpy as np
import pytest

from repro.common.types import AccessType
from repro.schemes.snuca import SNucaScheme
from repro.sim import stats as stat_names
from repro.sim.simulator import simulate
from repro.workloads.trace import CoreTrace, TraceSet
from tests.helpers import records_trace_set


def _trace(records, name="test", regions=None):
    """Build a CoreTrace from (type, line, gap) tuples."""
    types = np.array([record[0] for record in records], dtype=np.uint8)
    lines = np.array([record[1] for record in records], dtype=np.int64)
    gaps = np.array([record[2] for record in records], dtype=np.uint16)
    return CoreTrace(types, lines, gaps)


def _trace_set(per_core, tiny_config, name="test"):
    return records_trace_set(per_core, name=name, region_lines=4096)


class TestBasicRuns:
    def test_single_access(self, tiny_config):
        traces = _trace_set(
            [[(AccessType.READ, 5, 0)], [], [], []], tiny_config
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.counters["offchip_misses"] == 1
        assert stats.completion_time > 0

    def test_core_count_mismatch_rejected(self, tiny_config):
        traces = _trace_set([[], []], tiny_config)
        with pytest.raises(ValueError, match="cores"):
            simulate(SNucaScheme(tiny_config), traces)

    def test_compute_gaps_accumulate(self, tiny_config):
        traces = _trace_set(
            [[(AccessType.READ, 5, 10), (AccessType.READ, 5, 20)], [], [], []],
            tiny_config,
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.latency_breakdown()["Compute"] == 30

    def test_completion_is_max_core_finish(self, tiny_config):
        traces = _trace_set(
            [
                [(AccessType.READ, 5, 0)],
                [(AccessType.READ, 9, 0), (AccessType.READ, 13, 0)],
                [],
                [],
            ],
            tiny_config,
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.completion_time == max(stats.core_finish)

    def test_all_access_types_processed(self, tiny_config):
        traces = _trace_set(
            [
                [
                    (AccessType.READ, 5, 0),
                    (AccessType.WRITE, 5, 0),
                    (AccessType.IFETCH, 9, 0),
                ],
                [], [], [],
            ],
            tiny_config,
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.counters["l1d_misses"] == 1
        assert stats.counters["l1i_misses"] == 1
        assert stats.counters["l1d_hits"] == 1  # the write upgrades in L1?


class TestBarriers:
    def test_barrier_synchronizes_cores(self, tiny_config):
        slow = [(AccessType.READ, 5 + 4 * index, 50) for index in range(8)]
        fast = [(AccessType.READ, 1001, 0)]
        barrier = (AccessType.BARRIER, 0, 0)
        tail = (AccessType.READ, 2001, 0)
        traces = _trace_set(
            [
                slow + [barrier, (AccessType.READ, 3001, 0)],
                fast + [barrier, tail],
                [barrier], [barrier],
            ],
            tiny_config,
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.latency_breakdown()["Synchronization"] > 0

    def test_mismatched_barrier_counts_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="barrier"):
            _trace_set(
                [
                    [(AccessType.BARRIER, 0, 0)],
                    [], [], [],
                ],
                tiny_config,
            )

    def test_no_deadlock_with_barriers(self, tiny_config):
        barrier = (AccessType.BARRIER, 0, 0)
        per_core = [
            [(AccessType.READ, 4 * index + core, 0), barrier,
             (AccessType.READ, 100 + core, 0), barrier]
            for core, index in zip(range(4), range(4))
        ]
        stats = simulate(SNucaScheme(tiny_config), _trace_set(per_core, tiny_config))
        assert stats.completion_time > 0


class TestRegionCoverage:
    """simulate() must reject traces whose region map misses accessed lines."""

    @pytest.mark.parametrize("kernel", ["reference", "fast"])
    def test_uncovered_access_raises_clear_error(self, tiny_config, kernel):
        traces = _trace_set(
            [[(AccessType.READ, 5000, 0)], [], [], []], tiny_config
        )  # region map covers [0, 4096) only
        with pytest.raises(ValueError, match="region map"):
            simulate(SNucaScheme(tiny_config), traces, kernel=kernel)

    def test_error_names_core_and_line(self, tiny_config):
        traces = _trace_set(
            [[], [(AccessType.READ, 5, 0), (AccessType.WRITE, 0x2000, 0)], [], []],
            tiny_config,
        )
        with pytest.raises(ValueError, match="core 1 accesses line 0x2000"):
            simulate(SNucaScheme(tiny_config), traces)

    def test_empty_region_map_rejects_any_access(self, tiny_config):
        region_free = TraceSet(
            "bare", [_trace([(AccessType.READ, 5, 0)]), _trace([]), _trace([]),
                     _trace([])], []
        )
        with pytest.raises(ValueError, match="region map"):
            simulate(SNucaScheme(tiny_config), region_free)

    def test_barrier_records_are_exempt(self, tiny_config):
        barrier = (AccessType.BARRIER, 9999, 0)  # barrier line is ignored
        traces = _trace_set(
            [[barrier, (AccessType.READ, 5, 0)], [barrier], [barrier], [barrier]],
            tiny_config,
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.completion_time > 0

    def test_validation_is_cached_per_trace_set(self, tiny_config):
        # A pre-set cache flag must short-circuit the scan: an uncovered
        # trace marked as already-checked simulates without raising.
        traces = _trace_set([[(AccessType.READ, 5000, 0)], [], [], []], tiny_config)
        traces._coverage_checked = True
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.completion_time > 0


class TestWriteUpgrade:
    def test_write_after_read_same_core(self, tiny_config):
        """A write to an E-state L1 line upgrades silently (L1 hit)."""
        traces = _trace_set(
            [[(AccessType.READ, 5, 0), (AccessType.WRITE, 5, 0)], [], [], []],
            tiny_config,
        )
        stats = simulate(SNucaScheme(tiny_config), traces)
        assert stats.counters["l1d_misses"] == 1
        assert stats.counters["l1d_hits"] == 1
