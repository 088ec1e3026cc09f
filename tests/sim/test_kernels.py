"""Kernel selection, decoded-trace views, and the fast-access fallback."""

from __future__ import annotations

import pytest

from repro.common.types import AccessType
from repro.schemes.factory import make_scheme
from repro.schemes.snuca import SNucaScheme
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


class TestDecodedTraces:
    def test_decoded_is_cached(self, traces_small):
        _config, traces = traces_small
        trace = traces.cores[0]
        assert trace.decoded() is trace.decoded()

    def test_decoded_contents_match_arrays(self, traces_small):
        _config, traces = traces_small
        trace = traces.cores[0]
        decoded = trace.decoded()
        assert decoded.length == len(trace)
        assert decoded.lines == [int(line) for line in trace.lines]
        assert all(isinstance(atype, AccessType) for atype in decoded.atypes)
        assert [int(a) for a in decoded.atypes] == list(trace.types)

    def test_compute_cycles_exclude_barrier_gaps(self, traces_small):
        _config, traces = traces_small
        for trace in traces.cores:
            non_barrier = trace.types != AccessType.BARRIER
            assert trace.decoded().compute_cycles == float(
                trace.gaps[non_barrier].sum()
            )

class TestFractionalGaps:
    @pytest.mark.parametrize("kernel", ["fast"])
    def test_fractional_gaps_stay_bit_identical(self, kernel):
        """Non-integer gaps disable per-window Compute charging; the fast
        kernel must match the reference's per-record accumulation order
        exactly."""
        import numpy as np

        from repro.common.params import MachineConfig
        from repro.schemes.snuca import SNucaScheme
        from repro.workloads.trace import CoreTrace, TraceSet
        from repro.common.addr import Region
        from repro.common.types import AccessType, LineClass

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
        assert not traces.decoded()[0].gaps_integral
        baseline = simulate(SNucaScheme(config), traces, kernel="reference")
        candidate = simulate(SNucaScheme(config), traces, kernel=kernel)
        assert_stats_equal(baseline, candidate, context=f"fractional gaps {kernel}")

    def test_release_decoded_drops_cache(self, traces_small):
        _config, traces = traces_small
        first = traces.cores[0].decoded()
        assert traces.cores[0].decoded() is first
        # Caching freezes the arrays: silent mutation would desync the view.
        assert not traces.cores[0].gaps.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            traces.cores[0].gaps[0] = 1
        traces.release_decoded()
        assert traces.cores[0].gaps.flags.writeable
        rebuilt = traces.cores[0].decoded()
        assert rebuilt is not first
        assert rebuilt.lines == first.lines


class TestFastAccessSpecialization:
    def test_base_schemes_provide_fast_access(self, traces_small):
        config, _traces = traces_small
        for scheme in ("S-NUCA", "R-NUCA", "VR", "ASR", "RT-3"):
            assert make_scheme(scheme, config).make_fast_access() is not None

    def test_access_override_disables_specialization(self, traces_small):
        config, traces = traces_small

        class LoggingSNuca(SNucaScheme):
            def __init__(self, cfg):
                super().__init__(cfg)
                self.seen = 0

            def access(self, core, atype, line_addr, now):
                self.seen += 1
                return super().access(core, atype, line_addr, now)

        assert LoggingSNuca(config).make_fast_access() is None
        # The fast kernel must fall back to the override, not bypass it.
        override_engine = LoggingSNuca(config)
        overridden = simulate(override_engine, traces, kernel="fast")
        assert override_engine.seen == traces.total_accesses()
        baseline = simulate(SNucaScheme(config), traces, kernel="reference")
        assert_stats_equal(baseline, overridden, context="override fallback")

    def test_instance_attribute_override_disables_specialization(self, traces_small):
        config, traces = traces_small
        engine = SNucaScheme(config)
        calls = []
        original = engine.access

        def wrapper(core, atype, line_addr, now):
            calls.append(core)
            return original(core, atype, line_addr, now)

        engine.access = wrapper
        assert engine.make_fast_access() is None
        simulate(engine, traces, kernel="fast")
        assert len(calls) == traces.total_accesses()

    def test_l1_energy_override_disables_specialization(self, traces_small):
        config, traces = traces_small

        class SilentL1Energy(SNucaScheme):
            def _l1_energy(self, is_ifetch, read):
                pass  # a subclass modelling free L1 accesses

        assert SilentL1Energy(config).make_fast_access() is None
        fast = simulate(SilentL1Energy(config), traces, kernel="fast")
        reference = simulate(SilentL1Energy(config), traces, kernel="reference")
        assert_stats_equal(reference, fast, context="_l1_energy override")

    def test_subclassing_without_access_override_keeps_specialization(
        self, traces_small
    ):
        config, _traces = traces_small

        class PlainSubclass(SNucaScheme):
            pass

        assert PlainSubclass(config).make_fast_access() is not None


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
        import numpy as np

        from repro.common.params import MachineConfig
        from repro.workloads.trace import CoreTrace, TraceSet
        from repro.common.addr import Region
        from repro.common.types import LineClass

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
