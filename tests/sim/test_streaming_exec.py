"""Streamed vs materialized traces on real scheme engines.

The unit-level chunk-boundary cases live in
``tests/workloads/test_streaming.py``; here full machines (caches,
mesh, DRAM, replication) run real benchmark traces both ways and must
produce bit-identical stats — the tier-1 counterpart of the CI
``streaming-smoke`` giga-trace check.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.schemes.factory import make_scheme
from repro.sim.kernel import FastKernel
from repro.sim.simulator import simulate
from repro.testing.differential import verify_streaming
from repro.workloads.benchmarks import build_trace, get_profile
from repro.workloads.streaming import StreamingTraceSet

KERNELS = ("reference", "fast")


@pytest.fixture(scope="module")
def trace_and_config():
    from repro.common.params import MachineConfig

    config = MachineConfig.tiny()
    return build_trace(get_profile("RADIX"), config, seed=5), config


class TestStreamedEqualsMaterialized:
    @pytest.mark.parametrize("scheme", ["S-NUCA", "R-NUCA", "VR", "RT-3"])
    def test_schemes_bit_identical(self, trace_and_config, scheme):
        traces, config = trace_and_config
        verify_streaming(
            lambda: make_scheme(scheme, config),
            traces,
            chunk_records=193,
            context=scheme,
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_kernel_across_chunk_sizes(self, trace_and_config, kernel):
        traces, config = trace_and_config
        expected = simulate(
            make_scheme("RT-3", config), traces, kernel=kernel
        ).to_dict()
        for chunk in (1, 97, 1 << 20):
            streamed = StreamingTraceSet.from_trace_set(traces, chunk)
            got = simulate(
                make_scheme("RT-3", config), streamed, kernel=kernel
            ).to_dict()
            assert got == expected, (kernel, chunk)

    def test_fractional_gaps_bit_identical(self, trace_and_config):
        """Fractional gaps take the window loop's per-record Compute
        branch: every chunk size must match materialized reference, also
        with the equal-time pushes perturbed."""
        traces, config = trace_and_config
        rng = np.random.default_rng(2)
        cores = [
            dataclasses.replace(
                trace,
                gaps=trace.gaps.astype(np.float64)
                + rng.uniform(0.0, 0.9, size=len(trace)),
            )
            for trace in traces.cores
        ]
        frac = dataclasses.replace(traces, cores=cores)
        expected = simulate(
            make_scheme("RT-3", config), frac, kernel="reference"
        ).to_dict()
        for chunk in (1, 97, 151, 1 << 20):
            streamed = StreamingTraceSet.from_trace_set(frac, chunk_records=chunk)
            assert not streamed.gaps_integral
            for kernel in (*KERNELS, FastKernel(perturb_seed=11)):
                got = simulate(
                    make_scheme("RT-3", config), streamed, kernel=kernel
                ).to_dict()
                assert got == expected, (chunk, kernel)

    def test_chunk_env_knob_drives_the_default(
        self, trace_and_config, monkeypatch
    ):
        traces, config = trace_and_config
        expected = simulate(make_scheme("RT-3", config), traces).to_dict()
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "61")
        streamed = StreamingTraceSet.from_trace_set(traces)
        got = simulate(make_scheme("RT-3", config), streamed).to_dict()
        assert got == expected

    def test_kernel_env_applies_to_streaming(
        self, trace_and_config, monkeypatch
    ):
        traces, config = trace_and_config
        monkeypatch.setenv("REPRO_SIM_KERNEL", "reference")
        expected = simulate(make_scheme("RT-3", config), traces).to_dict()
        streamed = StreamingTraceSet.from_trace_set(traces, 89)
        got = simulate(make_scheme("RT-3", config), streamed).to_dict()
        assert got == expected


class TestDirectCaptureStreaming:
    def test_capture_stream_matches_materialized_import(self, tmp_path):
        from repro.common.params import MachineConfig
        from repro.workloads.champsim_bin import synthesize_champsim_bin
        from repro.workloads.imports import ImportOptions, import_trace

        config = MachineConfig.tiny()
        path = synthesize_champsim_bin(
            tmp_path / "cap.trace.xz", 6000, seed=3
        )
        materialized = import_trace(path, options=ImportOptions(num_cores=4))
        for overlap in (False, True):
            streamed = StreamingTraceSet.from_champsim_bin(
                path, num_cores=4, chunk_records=512, overlap=overlap
            )
            assert streamed.total_records == materialized.total_accesses()
            for kernel in KERNELS:
                expected = simulate(
                    make_scheme("RT-3", config), materialized, kernel=kernel
                ).to_dict()
                got = simulate(
                    make_scheme("RT-3", config), streamed, kernel=kernel
                ).to_dict()
                assert got == expected, (overlap, kernel)

    def test_window_coverage_violation_caught(self, trace_and_config):
        traces, config = trace_and_config
        streamed = StreamingTraceSet.from_trace_set(traces, 128)
        streamed = dataclasses.replace(streamed, regions=traces.regions[:1])
        with pytest.raises(ValueError, match="no region"):
            simulate(make_scheme("RT-3", config), streamed)
