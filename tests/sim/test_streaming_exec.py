"""Windowed vs whole-trace execution on real scheme engines.

The fast kernel pulls every set — materialized or streamed — in
``REPRO_STREAM_CHUNK``-record windows, while the reference kernel
indexes whole traces.  Here full machines (caches, mesh, DRAM,
replication) run real benchmark traces at several chunk sizes and must
produce bit-identical stats; the unit-level chunk-boundary cases live in
``tests/workloads/test_streaming.py``, and the CI ``streaming-smoke``
job is the giga-trace counterpart.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.params import MachineConfig
from repro.schemes.factory import make_scheme
from repro.sim.kernel import FastKernel
from repro.sim.simulator import simulate
from repro.testing.differential import verify_kernels
from repro.workloads.benchmarks import build_trace, get_profile
from repro.workloads.streaming import StreamingTraceSet

from tests.helpers import streamed_view

KERNELS = ("reference", "fast")


@pytest.fixture(scope="module")
def trace_and_config():
    config = MachineConfig.tiny()
    return build_trace(get_profile("RADIX"), config, seed=5), config


class TestStreamedEqualsMaterialized:
    @pytest.mark.parametrize("scheme", ["S-NUCA", "R-NUCA", "VR", "RT-3"])
    def test_schemes_bit_identical(self, trace_and_config, scheme, monkeypatch):
        traces, config = trace_and_config
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "193")
        verify_kernels(lambda: make_scheme(scheme, config), traces, context=scheme)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_kernel_across_chunk_sizes(
        self, trace_and_config, kernel, monkeypatch
    ):
        traces, config = trace_and_config
        expected = simulate(
            make_scheme("RT-3", config), traces, kernel="reference"
        ).to_dict()
        for chunk in (1, 97, 151, 1 << 20):
            monkeypatch.setenv("REPRO_STREAM_CHUNK", str(chunk))
            got = simulate(
                make_scheme("RT-3", config), traces, kernel=kernel
            ).to_dict()
            assert got == expected, (kernel, chunk)

    def test_fractional_gaps_bit_identical(self, trace_and_config, monkeypatch):
        """Fractional gaps take the window loop's per-record Compute
        branch: windowed runs must match the reference, also with the
        equal-time pushes perturbed."""
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
        assert not frac.gaps_integral
        expected = simulate(
            make_scheme("RT-3", config), frac, kernel="reference"
        ).to_dict()
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "151")
        for kernel in (*KERNELS, FastKernel(perturb_seed=11)):
            got = simulate(
                make_scheme("RT-3", config), frac, kernel=kernel
            ).to_dict()
            assert got == expected, kernel

    def test_chunk_env_knob_drives_the_default(
        self, trace_and_config, monkeypatch
    ):
        traces, config = trace_and_config
        expected = simulate(make_scheme("RT-3", config), traces).to_dict()
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "61")
        assert traces.open_source().chunk_records == 61
        got = simulate(make_scheme("RT-3", config), traces).to_dict()
        assert got == expected

    def test_kernel_env_applies_to_streaming(
        self, trace_and_config, monkeypatch
    ):
        traces, config = trace_and_config
        monkeypatch.setenv("REPRO_SIM_KERNEL", "reference")
        expected = simulate(make_scheme("RT-3", config), traces).to_dict()
        streamed = streamed_view(traces, 89)
        got = simulate(make_scheme("RT-3", config), streamed).to_dict()
        assert got == expected


@pytest.fixture(scope="module")
def imported_capture(tmp_path_factory):
    """A 4-core capture, its materialized import and that import's stats."""
    from repro.workloads.champsim_bin import synthesize_champsim_bin
    from repro.workloads.imports import ImportOptions, import_trace

    path = synthesize_champsim_bin(
        tmp_path_factory.mktemp("capture") / "cap.trace.xz", 2000, seed=4,
        footprint_lines=512,
    )
    materialized = import_trace(path, options=ImportOptions(num_cores=4))
    expected = simulate(
        make_scheme("RT-3", MachineConfig.tiny()), materialized, kernel="reference"
    ).to_dict()
    return path, materialized, expected


class TestDirectCaptureStreaming:
    def test_capture_stream_matches_materialized_import(self, tmp_path):
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

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("chunk", [1, 512])
    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_any_decode_block_matches_materialized_import(
        self, imported_capture, block, chunk, overlap, monkeypatch
    ):
        """The decode block and the window cap bound memory only: the
        streamed stats equal the materialized import's, whatever they are."""
        from repro.workloads import champsim_bin

        path, materialized, expected = imported_capture
        monkeypatch.setattr(champsim_bin, "BLOCK_INSTRUCTIONS", block)
        streamed = StreamingTraceSet.from_champsim_bin(
            path, num_cores=4, chunk_records=chunk, overlap=overlap
        )
        assert streamed.total_records == materialized.total_accesses()
        assert streamed.regions == materialized.regions
        got = simulate(make_scheme("RT-3", MachineConfig.tiny()), streamed).to_dict()
        assert got == expected

    def test_window_coverage_violation_caught(self, trace_and_config):
        traces, config = trace_and_config
        streamed = streamed_view(traces, 128, regions=traces.regions[:1])
        with pytest.raises(ValueError, match="no region"):
            simulate(make_scheme("RT-3", config), streamed)
