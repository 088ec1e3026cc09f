"""Differential suite: optimized kernels are bit-identical to reference.

Every headline number flows through the simulator, so the optimized
fast kernel is only trustworthy if they reproduce the
reference loop's ``SimStats`` exactly — all five schemes, across
workload regimes (LLC reuse, capacity pressure, migratory sharing) and
seeds.  The suite also covers the failure path: a mismatch report must
localize the *first* cycle-stamped divergent stat field via trace-prefix
bisection, not just dump the whole-SimStats inequality.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.common.params import MachineConfig
from repro.common.types import AccessType
from repro.schemes.factory import make_scheme
from repro.sim.kernel import ReferenceKernel, kernel_names
from repro.sim.stats import SimStats
from repro.testing.differential import (
    DifferentialMismatch,
    FirstDivergence,
    StatsDiff,
    assert_stats_equal,
    diff_kernels,
    locate_first_divergence,
    stats_diff,
    summarize,
    truncated_traces,
    verify_kernels,
    verify_matrix,
)
from repro.workloads.benchmarks import BenchmarkProfile, build_trace, get_profile

#: The five evaluated schemes (ASR at its default replication level).
SCHEMES = ("S-NUCA", "R-NUCA", "VR", "ASR", "RT-3")

#: Every optimized kernel that must match the reference loop.
CANDIDATE_KERNELS = ("fast",)

#: Three seeded workload profiles spanning distinct behaviour classes:
#: shared-RW reuse, partitioned capacity pressure, migratory data.
WORKLOADS = (
    ("BARNES", 0.10, 11),
    ("OCEAN-C", 0.10, 23),
    ("DEDUP", 0.10, 37),
)

#: A fixed replica-dominated profile: high-reuse shared reads over a
#: working set between the L1 and the LLC, with enough written-shared
#: and migratory traffic to cycle locality classifiers through
#: promotions and demotions (the paper's headline mechanism).
REPLICA_PROFILE = BenchmarkProfile(
    name="REPLICA-LOOP",
    description="replica-dominated shared-read loop for the differential suite",
    f_ifetch=0.08,
    f_private=0.07,
    f_shared_ro=0.60,
    f_shared_rw=0.15,
    f_migratory=0.10,
    shared_ro_ws_x_l1d=2.5,
    shared_rw_ws_x_l1d=1.0,
    migratory_window_x_l1d=0.5,
    private_ws_x_l1d=0.4,
    private_burst=8,
    write_frac_rw=0.15,
    mean_gap=0.0,
    accesses_per_core=1500,
    barriers=1,
)


@pytest.fixture(scope="module")
def config() -> MachineConfig:
    return MachineConfig.tiny()


@pytest.fixture(scope="module")
def trace_sets(config):
    sets = {
        name: build_trace(get_profile(name), config, scale=scale, seed=seed)
        for name, scale, seed in WORKLOADS
    }
    sets["REPLICA-LOOP"] = build_trace(REPLICA_PROFILE, config, scale=1.0, seed=53)
    return sets


class TestKernelEquivalence:
    @pytest.mark.parametrize("candidate", CANDIDATE_KERNELS)
    @pytest.mark.parametrize(
        "workload", [name for name, _s, _e in WORKLOADS] + ["REPLICA-LOOP"]
    )
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_identical_stats(self, config, trace_sets, scheme, workload, candidate):
        stats = verify_kernels(
            lambda: make_scheme(scheme, config),
            trace_sets[workload],
            candidate=candidate,
            context=f"{scheme} on {workload}",
        )
        # Sanity: the workload actually exercised the machine.
        assert stats.completion_time > 0
        assert stats.l1_misses() > 0

    def test_verify_kernels_defaults_to_fast(self, config, trace_sets):
        """The check the fuzz CLI drives: the fast kernel against the
        reference, with no kernel named."""
        assert kernel_names() == ("reference", "fast")
        stats = verify_kernels(
            lambda: make_scheme("RT-3", config), trace_sets["BARNES"]
        )
        assert stats.completion_time > 0

    def test_verify_matrix_runs_all_combinations(self, config, trace_sets):
        builders = {scheme: (lambda s=scheme: make_scheme(s, config))
                    for scheme in ("S-NUCA", "RT-3")}
        results = verify_matrix(builders, trace_sets)
        assert len(results) == 2 * len(trace_sets)
        report = summarize(sorted(results.items()))
        for scheme in builders:
            assert scheme in report


class TestStatsDiff:
    def _stats(self) -> SimStats:
        stats = SimStats(2)
        stats.counters = Counter({"l1d_hits": 3})
        stats.latency = Counter({"Compute": 10.0})
        stats.core_finish = [5.0, 7.0]
        stats.completion_time = 7.0
        return stats

    def test_identical_stats_have_empty_diff(self):
        assert stats_diff(self._stats(), self._stats()) == []
        assert_stats_equal(self._stats(), self._stats())

    def test_counter_divergence_reported(self):
        reference, candidate = self._stats(), self._stats()
        candidate.counters["l1d_hits"] += 1
        candidate.latency["Compute"] = 11.0
        diffs = stats_diff(reference, candidate)
        assert {(diff.section, diff.key) for diff in diffs} == {
            ("counters", "l1d_hits"),
            ("latency", "Compute"),
        }

    def test_missing_key_counts_as_divergence(self):
        reference, candidate = self._stats(), self._stats()
        candidate.counters["invalidations_sent"] = 2
        diffs = stats_diff(reference, candidate)
        assert [diff.key for diff in diffs] == ["invalidations_sent"]
        assert diffs[0].reference == 0

    def test_core_finish_and_completion_divergence(self):
        reference, candidate = self._stats(), self._stats()
        candidate.core_finish[1] = 9.0
        candidate.completion_time = 9.0
        sections = {diff.section for diff in stats_diff(reference, candidate)}
        assert sections == {"core_finish", "completion_time"}

    def test_mismatch_raises_with_readable_report(self):
        reference, candidate = self._stats(), self._stats()
        candidate.counters["l1d_hits"] = 99
        with pytest.raises(DifferentialMismatch, match=r"counters\[l1d_hits\]"):
            assert_stats_equal(reference, candidate, context="unit")

    def test_statsdiff_str(self):
        diff = StatsDiff("counters", "x", 1, 2)
        assert "counters[x]" in str(diff)


class TestDiffKernels:
    def test_returns_both_stats_and_empty_diff(self, config, trace_sets):
        reference, candidate, diffs = diff_kernels(
            lambda: make_scheme("VR", config), trace_sets["BARNES"]
        )
        assert diffs == []
        assert reference.completion_time == candidate.completion_time


class _CorruptAfter(ReferenceKernel):
    """Reference loop that miscounts one hit once core 0's trace reaches
    ``threshold`` records — a synthetic kernel bug with a known onset,
    for exercising the first-divergence bisection."""

    name = "corrupt"

    def __init__(self, threshold: int) -> None:
        super().__init__()
        self.threshold = threshold

    def run(self, engine, traces) -> None:
        super().run(engine, traces)
        if len(traces.cores[0]) >= self.threshold:
            engine.stats.counters["l1d_hits"] += 1


class TestFirstDivergence:
    def test_truncation_preserves_barrier_balance(self, config, trace_sets):
        traces = trace_sets["BARNES"]
        prefix = truncated_traces(traces, 10)
        counts = {trace.barrier_count() for trace in prefix.cores}
        assert len(counts) == 1
        for core, trace in enumerate(prefix.cores):
            assert len(trace) >= 10
            non_barrier = trace.types[:10] != AccessType.BARRIER
            np.testing.assert_array_equal(
                trace.lines[:10][non_barrier],
                traces.cores[core].lines[:10][non_barrier],
            )

    def test_truncated_prefix_simulates_identically_across_kernels(
        self, config, trace_sets
    ):
        prefix = truncated_traces(trace_sets["OCEAN-C"], 25)
        verify_kernels(lambda: make_scheme("S-NUCA", config), prefix)

    def test_bisection_finds_divergence_onset(self, config, trace_sets):
        traces = trace_sets["DEDUP"]
        threshold = 137
        first = locate_first_divergence(
            lambda: make_scheme("S-NUCA", config),
            traces,
            candidate=_CorruptAfter(threshold),
        )
        assert first is not None
        assert first.record_index == threshold
        assert first.cycle > 0
        assert [
            (diff.section, diff.key) for diff in first.diffs
        ] == [("counters", "l1d_hits")]

    def test_bisection_returns_none_when_identical(self, config, trace_sets):
        assert (
            locate_first_divergence(
                lambda: make_scheme("S-NUCA", config), trace_sets["DEDUP"]
            )
            is None
        )

    def test_mismatch_report_leads_with_first_divergence(self, config, trace_sets):
        with pytest.raises(DifferentialMismatch) as excinfo:
            verify_kernels(
                lambda: make_scheme("S-NUCA", config),
                trace_sets["DEDUP"],
                candidate=_CorruptAfter(101),
                context="unit",
            )
        error = excinfo.value
        assert isinstance(error.first, FirstDivergence)
        assert error.first.record_index == 101
        message = str(error)
        # The context is followed by the kernel pair that diverged.
        assert message.startswith("kernels diverge (unit: reference vs ")
        assert "first divergence within the first 101 record(s)/core" in message
        assert "cycle" in message
        assert "counters[l1d_hits]" in message

    def test_locate_false_skips_bisection(self, config, trace_sets):
        with pytest.raises(DifferentialMismatch) as excinfo:
            verify_kernels(
                lambda: make_scheme("S-NUCA", config),
                trace_sets["DEDUP"],
                candidate=_CorruptAfter(1),
                locate=False,
            )
        assert excinfo.value.first is None
        assert str(excinfo.value).startswith("kernels diverge (reference vs ")
