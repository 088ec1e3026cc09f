"""Metamorphic checks: invariances the event loop must respect."""

from __future__ import annotations

import pytest

from repro.common.params import MachineConfig
from repro.schemes.factory import make_scheme
from repro.testing.metamorphic import (
    check_barrier_count_invariance,
    check_equal_time_permutation,
    check_scale_monotonicity,
    with_prepended_barriers,
)
from repro.workloads.benchmarks import build_trace, get_profile


@pytest.fixture(scope="module")
def config() -> MachineConfig:
    return MachineConfig.tiny()


@pytest.fixture(scope="module")
def traces(config):
    # BARNES carries barriers by default, so barrier release paths run.
    return build_trace(get_profile("BARNES"), config, scale=0.1, seed=5)


class TestEqualTimePermutation:
    @pytest.mark.parametrize("kernel", ["reference", "fast"])
    @pytest.mark.parametrize("scheme", ["S-NUCA", "RT-3"])
    def test_shuffled_equal_time_events_are_invisible(
        self, config, traces, scheme, kernel
    ):
        stats = check_equal_time_permutation(
            lambda: make_scheme(scheme, config), traces, kernel=kernel
        )
        assert stats.completion_time > 0


class TestBarrierCountInvariance:
    @pytest.mark.parametrize("scheme", ["S-NUCA", "VR", "RT-3"])
    def test_prepended_barriers_are_free(self, config, traces, scheme):
        stats = check_barrier_count_invariance(
            lambda: make_scheme(scheme, config), traces, counts=(1, 4)
        )
        assert stats.completion_time > 0

    def test_with_prepended_barriers_shape(self, traces):
        padded = with_prepended_barriers(traces, 2)
        for original, new in zip(traces.cores, padded.cores):
            assert len(new) == len(original) + 2
            assert new.barrier_count() == original.barrier_count() + 2

    def test_negative_count_rejected(self, traces):
        with pytest.raises(ValueError, match="non-negative"):
            with_prepended_barriers(traces, -1)


class TestScaleMonotonicity:
    @pytest.mark.parametrize("scheme", ["S-NUCA", "RT-3"])
    def test_longer_workloads_take_longer(self, config, scheme):
        profile = get_profile("WATER-NSQ")
        results = check_scale_monotonicity(
            lambda: make_scheme(scheme, config),
            lambda scale: build_trace(profile, config, scale=scale, seed=9),
            scales=(0.05, 0.1, 0.2),
        )
        assert len(results) == 3
        completions = [stats.completion_time for _scale, stats in results]
        assert completions == sorted(completions)

    def test_unsorted_scales_rejected(self, config):
        with pytest.raises(ValueError, match="increasing"):
            check_scale_monotonicity(
                lambda: make_scheme("S-NUCA", config),
                lambda scale: None,
                scales=(0.2, 0.1),
            )
