"""Kernel selection, decoded windows, caller-owned arrays, and the
engine's one access closure."""

from __future__ import annotations

import pytest

import math

import numpy as np

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass
from repro.schemes.factory import make_scheme
from repro.schemes.snuca import SNucaScheme
from repro.schemes.victim import VictimReplicationScheme
from repro.sim.kernel import (
    DEFAULT_KERNEL,
    KERNELS,
    FastKernel,
    ReferenceKernel,
    SimulationKernel,
    kernel_names,
    resolve_kernel,
)
from repro.sim.simulator import simulate
from repro.testing.differential import assert_stats_equal
from repro.workloads.benchmarks import build_trace, get_profile
from repro.workloads.streaming import ArraySegmentSource
from repro.workloads.trace import CoreTrace, DecodedTrace, TraceSet


@pytest.fixture(scope="module")
def traces_small(request):
    from repro.common.params import MachineConfig

    config = MachineConfig.tiny()
    return config, build_trace(get_profile("BARNES"), config, scale=0.05, seed=2)


class TestKernelResolution:
    def test_registry_contains_all_kernels(self):
        assert kernel_names() == ("reference", "fast")
        assert KERNELS["fast"] is FastKernel
        assert DEFAULT_KERNEL == "fast"

    def test_resolve_by_name(self):
        assert isinstance(resolve_kernel("reference"), ReferenceKernel)
        assert isinstance(resolve_kernel("fast"), FastKernel)

    @pytest.mark.parametrize("name", ["batched", "vector", "auto"])
    def test_removed_kernel_names_are_rejected(self, name, monkeypatch):
        with pytest.raises(ValueError, match=r"available: \['fast', 'reference'\]"):
            resolve_kernel(name)
        monkeypatch.setenv("REPRO_SIM_KERNEL", name)
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel(None)

    def test_resolve_passes_instances_through(self):
        kernel = FastKernel(perturb_seed=3)
        assert resolve_kernel(kernel) is kernel

    def test_resolve_accepts_classes(self):
        assert isinstance(resolve_kernel(ReferenceKernel), ReferenceKernel)

    def test_unknown_name_raises_with_available_kernels(self):
        with pytest.raises(ValueError, match="fast.*reference|reference.*fast"):
            resolve_kernel("turbo")

    def test_none_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "reference")
        assert isinstance(resolve_kernel(None), ReferenceKernel)
        monkeypatch.delenv("REPRO_SIM_KERNEL")
        assert isinstance(resolve_kernel(None), FastKernel)

    def test_simulate_rejects_unknown_kernel(self, traces_small):
        config, traces = traces_small
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            simulate(make_scheme("S-NUCA", config), traces, kernel="turbo")


def _decode(trace):
    return DecodedTrace(trace.types, trace.lines, trace.gaps)


class TestDecodedTraces:
    def test_decoded_contents_match_arrays(self, traces_small):
        _config, traces = traces_small
        trace = traces.cores[0]
        decoded = _decode(trace)
        assert decoded.length == len(trace)
        assert decoded.lines == [int(line) for line in trace.lines]
        assert all(isinstance(atype, AccessType) for atype in decoded.atypes)
        assert [int(a) for a in decoded.atypes] == list(trace.types)
        assert decoded.gaps == [int(gap) for gap in trace.gaps]
        assert all(type(gap) is int for gap in decoded.gaps)

    def test_compute_cycles_exclude_barrier_gaps(self, traces_small):
        _config, traces = traces_small
        for trace in traces.cores:
            non_barrier = trace.types != AccessType.BARRIER
            assert _decode(trace).compute_cycles == float(
                trace.gaps[non_barrier].sum()
            )

    def test_fast_kernel_windows_a_trace_set(self, traces_small, monkeypatch):
        """A materialized set reaches the fast kernel in bounded windows:
        exactly ceil(len / chunk) non-empty pulls per core."""
        config, traces = traces_small
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "97")
        windows = [0] * traces.num_cores
        pull = ArraySegmentSource.pull

        def counting_pull(self, core):
            chunk = pull(self, core)
            if chunk is not None:
                assert len(chunk[0]) <= 97
                windows[core] += 1
            return chunk

        monkeypatch.setattr(ArraySegmentSource, "pull", counting_pull)
        simulate(make_scheme("RT-3", config), traces, kernel="fast")
        assert windows == [math.ceil(len(trace) / 97) for trace in traces.cores]
        assert max(windows) > 1


def _read_only_set() -> TraceSet:
    """A four-core set over read-only buffers (as ``np.frombuffer`` of
    ``bytes`` makes)."""
    cores = []
    for core in range(4):
        n = 30
        types = np.full(n, int(AccessType.READ), dtype=np.uint8)
        types[n // 2] = int(AccessType.BARRIER)
        lines = (np.arange(n, dtype=np.int64) % 12) + 64 * core
        gaps = np.full(n, core + 1, dtype=np.uint16)
        cores.append(CoreTrace(
            types=np.frombuffer(types.tobytes(), dtype=np.uint8),
            lines=np.frombuffer(lines.tobytes(), dtype=np.int64),
            gaps=np.frombuffer(gaps.tobytes(), dtype=np.uint16),
        ))
    return TraceSet("read-only", cores, [(Region(0, 4096), LineClass.SHARED_RW)])


class TestCallerArrays:
    """simulate() only reads the set: it neither freezes nor thaws the
    caller's arrays."""

    def test_writable_arrays_stay_writable(self, traces_small):
        config, traces = traces_small
        for kernel in ("fast", "reference"):
            simulate(make_scheme("RT-3", config), traces, kernel=kernel)
            for trace in traces.cores:
                for array in (trace.types, trace.lines, trace.gaps):
                    assert array.flags.writeable, kernel
        gaps = traces.cores[0].gaps
        saved = int(gaps[0])
        gaps[0] = 3
        gaps[0] = saved

    def test_read_only_arrays_simulate_twice(self, monkeypatch):
        from repro.common.params import MachineConfig
        from repro.experiments import runner
        from repro.experiments.runner import ExperimentSetup
        from repro.experiments.spec import ExperimentSpec, RunPoint, execute_spec

        config = MachineConfig.tiny()
        traces = _read_only_set()
        expected = simulate(make_scheme("RT-3", config), traces, kernel="reference")
        for kernel in ("fast", "reference", "fast", "reference"):
            got = simulate(make_scheme("RT-3", config), traces, kernel=kernel)
            assert_stats_equal(expected, got, context=kernel)
        # The experiment executor runs it too (and leaves the flags alone).
        monkeypatch.setattr(runner, "build_trace", lambda *args: traces)
        setup = ExperimentSetup(config)
        for kernel in ("fast", "reference"):
            point = RunPoint("RT-3", "DEDUP", kernel=kernel)
            results = execute_spec(ExperimentSpec("read-only", (point,)), setup)
            assert_stats_equal(expected, results.result_for(point).stats, context=kernel)
        assert not traces.cores[0].gaps.flags.writeable


class TestFractionalGaps:
    @pytest.mark.parametrize("kernel", ["fast"])
    def test_fractional_gaps_stay_bit_identical(self, kernel):
        """Non-integer gaps disable per-window Compute charging; the fast
        kernel must match the reference's per-record accumulation order
        exactly."""
        from repro.common.params import MachineConfig

        config = MachineConfig.tiny()
        rng = np.random.default_rng(7)
        cores = []
        for core in range(4):
            n = 20
            cores.append(
                CoreTrace(
                    types=np.full(n, int(AccessType.READ), dtype=np.uint8),
                    lines=np.arange(100 * core, 100 * core + n, dtype=np.int64),
                    gaps=rng.uniform(0.0, 3.0, size=n),  # fractional floats
                )
            )
        traces = TraceSet(
            "fractional", cores, [(Region(0, 4096), LineClass.SHARED_RW)]
        )
        assert not traces.gaps_integral
        baseline = simulate(SNucaScheme(config), traces, kernel="reference")
        candidate = simulate(SNucaScheme(config), traces, kernel=kernel)
        assert_stats_equal(baseline, candidate, context=f"fractional gaps {kernel}")



class TestFastAccessSpecialization:
    """Both kernels run the engine's one access closure; schemes extend it
    through hooks, and an override of the body itself is refused."""

    def test_base_schemes_provide_fast_access(self, traces_small):
        config, _traces = traces_small
        for scheme in ("S-NUCA", "R-NUCA", "VR", "ASR", "RT-3"):
            assert callable(make_scheme(scheme, config).make_fast_access())

    def test_access_override_fails_at_class_creation(self):
        with pytest.raises(TypeError, match="redefines ProtocolEngine.access"):

            class LoggingSNuca(SNucaScheme):
                def access(self, core, atype, line_addr, now):
                    return super().access(core, atype, line_addr, now)

    def test_make_fast_access_override_is_refused(self):
        with pytest.raises(TypeError, match="redefines ProtocolEngine.make_fast_access"):
            type("Forked", (VictimReplicationScheme,), {
                "make_fast_access": lambda self: (lambda *args: 1.0),
            })

    def test_instance_access_override_is_rejected(self, traces_small):
        """The kernels never call ``engine.access``, so an instance-level
        wrapper would be bypassed without notice: both refuse it."""
        config, traces = traces_small
        for kernel in ("reference", "fast"):
            engine = SNucaScheme(config)
            engine.access = lambda core, atype, line_addr, now: 1.0
            with pytest.raises(TypeError, match="overrides access"):
                simulate(engine, traces, kernel=kernel)

    def test_kernels_take_the_closure_once_per_run(self, traces_small):
        config, traces = traces_small
        results = {}
        for kernel in ("reference", "fast"):
            engine = make_scheme("RT-3", config)
            built = []
            original = engine.make_fast_access

            def counted(original=original, built=built):
                built.append(original())
                return built[-1]

            engine.make_fast_access = counted
            results[kernel] = simulate(engine, traces, kernel=kernel)
            assert len(built) == 1, kernel
        assert_stats_equal(results["reference"], results["fast"], context="one closure")

    def test_hook_override_reaches_both_kernels(self, traces_small):
        """A scheme hook the closure calls as a bound method (here the L1
        eviction hook) is honoured under either kernel."""
        config, traces = traces_small
        calls = {"reference": 0, "fast": 0}

        class Counting(VictimReplicationScheme):
            def handle_l1_eviction(self, core, victim, is_ifetch, now):
                calls[self.kernel] += 1
                super().handle_l1_eviction(core, victim, is_ifetch, now)

        results = {}
        for kernel in calls:
            engine = Counting(config)
            engine.kernel = kernel
            results[kernel] = simulate(engine, traces, kernel=kernel)
            assert calls[kernel] == results[kernel].counters["l1_evictions"] > 0
        baseline = simulate(VictimReplicationScheme(config), traces, kernel="fast")
        assert_stats_equal(baseline, results["reference"], context="hook override")
        assert_stats_equal(baseline, results["fast"], context="hook override")

    def test_subclassing_without_access_override_keeps_specialization(
        self, traces_small
    ):
        config, _traces = traces_small

        class PlainSubclass(SNucaScheme):
            pass

        assert callable(PlainSubclass(config).make_fast_access())

    def test_tla_hints_stay_exact(self, traces_small):
        """TLA hints send a mesh message per Nth L1 hit from inside the
        fast-access closure."""
        config, traces = traces_small
        tla_config = config.with_overrides(tla_hints=True)
        baseline = simulate(SNucaScheme(tla_config), traces, kernel="reference")
        fast = simulate(SNucaScheme(tla_config), traces, kernel="fast")
        assert_stats_equal(baseline, fast, context="tla hints")

    def test_fast_kernel_inline_finish_and_empty_cores(self):
        """A core whose whole trace runs inline (empty heap at the end)
        finishes inline; empty traces finish at t=0."""
        from repro.common.params import MachineConfig

        config = MachineConfig.tiny()
        cores = []
        for core in range(4):
            n = 40 if core == 0 else 0
            cores.append(
                CoreTrace(
                    types=np.full(n, int(AccessType.READ), dtype=np.uint8),
                    lines=(np.arange(n, dtype=np.int64) % 8) + 64 * core,
                    gaps=np.zeros(n, dtype=np.uint16),
                )
            )
        traces = TraceSet("solo", cores, [(Region(0, 4096), LineClass.SHARED_RW)])
        reference = simulate(SNucaScheme(config), traces, kernel="reference")
        fast = simulate(SNucaScheme(config), traces, kernel="fast")
        assert_stats_equal(reference, fast, context="solo core")
        assert fast.core_finish[1] == 0.0
        assert fast.completion_time == fast.core_finish[0] > 0


class TestPerturbation:
    def test_perturbed_kernels_match_baseline(self, traces_small):
        config, traces = traces_small
        baseline = simulate(make_scheme("RT-3", config), traces, kernel="fast")
        for kernel_cls in (ReferenceKernel, FastKernel):
            perturbed = simulate(
                make_scheme("RT-3", config),
                traces,
                kernel=kernel_cls(perturb_seed=99),
            )
            assert_stats_equal(baseline, perturbed, context=kernel_cls.name)

    def test_base_kernel_interface_is_abstract(self, traces_small):
        config, traces = traces_small
        with pytest.raises(NotImplementedError):
            SimulationKernel().run(make_scheme("S-NUCA", config), traces)
