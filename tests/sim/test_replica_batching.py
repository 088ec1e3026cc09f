"""Reference vs fast on replica-dominated workloads.

The replica-dominated regime — L1 misses serviced by a local LLC replica
— is the paper's headline mechanism.  These tests pin the fast kernel's
bit-identity to the reference loop across all replicating schemes,
spanning classifier promotions and demotions, writes through E/M
replicas, dirty-victim merges, instruction replicas, fractional LLC
latencies, cluster-level replication and a protocol observer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.addr import Region
from repro.common.params import MachineConfig
from repro.common.types import AccessType, LineClass
from repro.schemes.base import ProtocolObserver
from repro.schemes.factory import make_scheme
from repro.sim.simulator import simulate
from repro.testing.differential import verify_all_kernels
from repro.workloads.trace import CoreTrace, TraceSet

REPLICATING_SCHEMES = ("VR", "ASR", "RT-1", "RT-3", "RT-8")


def replica_sweep_traces(
    config: MachineConfig,
    ws_x_l1d: float = 2.0,
    straggler_accesses: int = 5000,
    other_accesses: int = 400,
    write_frac: float = 0.0,
    ifetch_frac: float = 0.0,
    seed: int = 3,
) -> TraceSet:
    """Shared-read sweep over a working set between the L1 and the LLC.

    Every core loops over the same region (making it shared, so R-NUCA
    placement distributes homes and replicas actually help); core 0 does
    the bulk of the work so it runs long same-core runs of replica/L1
    hits once the others drain.
    """
    ws = max(8, round(config.l1d.lines * ws_x_l1d))
    region = Region(0, ws + 8192)
    rng = np.random.default_rng(seed)
    cores = []
    for core in range(config.num_cores):
        n = straggler_accesses if core == 0 else other_accesses
        lines = ((np.arange(n) * (core + 1)) % ws).astype(np.int64)
        types = np.full(n, int(AccessType.READ), dtype=np.uint8)
        if write_frac:
            types[rng.random(n) < write_frac] = int(AccessType.WRITE)
        if ifetch_frac:
            types[rng.random(n) < ifetch_frac] = int(AccessType.IFETCH)
        cores.append(
            CoreTrace(types=types, lines=lines, gaps=np.zeros(n, dtype=np.uint16))
        )
    return TraceSet("replica-sweep", cores, [(region, LineClass.SHARED_RW)])


@pytest.fixture(scope="module")
def config() -> MachineConfig:
    return MachineConfig.small()


class TestReplicaRunBitIdentity:
    @pytest.mark.parametrize("scheme", REPLICATING_SCHEMES + ("S-NUCA", "R-NUCA"))
    def test_read_dominated_sweep(self, config, scheme):
        traces = replica_sweep_traces(config)
        stats = verify_all_kernels(
            lambda: make_scheme(scheme, config), traces, context=scheme
        )
        if scheme in REPLICATING_SCHEMES:
            assert stats.counters["llc_replica_hits"] > 0

    @pytest.mark.parametrize("scheme", REPLICATING_SCHEMES)
    def test_writes_and_ifetches_cross_every_boundary(self, config, scheme):
        """Writes hit E/M replicas (locality), upgrade through the home
        (ASR/S replicas), invalidate remote copies — and instruction
        records exercise the L1I replica fill."""
        traces = replica_sweep_traces(
            config, write_frac=0.08, ifetch_frac=0.08, seed=17
        )
        verify_all_kernels(
            lambda: make_scheme(scheme, config), traces, context=scheme
        )

    @pytest.mark.parametrize("scheme", ("RT-1", "RT-3"))
    def test_l1_overflow_forces_dirty_victim_merges(self, config, scheme):
        """With the working set over the L1 and writes in the mix, every
        replica-hit fill evicts a dirty-able victim that must merge into
        its own local replica."""
        traces = replica_sweep_traces(
            config, ws_x_l1d=3.0, write_frac=0.2, seed=29
        )
        stats = verify_all_kernels(
            lambda: make_scheme(scheme, config), traces, context=scheme
        )
        assert stats.counters["l1_evictions"] > 0
        assert stats.counters["llc_replica_hits"] > 0

    @pytest.mark.parametrize("scheme", ("RT-3", "RT-8"))
    def test_promotions_and_demotions_stay_identical(self, config, scheme):
        """Classifier churn: promotions via reuse, demotions via write
        invalidations."""
        traces = replica_sweep_traces(config, write_frac=0.1, seed=41)
        stats = verify_all_kernels(
            lambda: make_scheme(scheme, config), traces, context=scheme
        )
        assert stats.counters["promotions"] > 0

    def test_sparse_classifier_organization(self, config):
        sparse = config.with_overrides(classifier_organization="sparse")
        traces = replica_sweep_traces(sparse, write_frac=0.05)
        verify_all_kernels(
            lambda: make_scheme("RT-3", sparse), traces, context="sparse"
        )

    def test_oracle_lookup(self, config):
        traces = replica_sweep_traces(config)
        verify_all_kernels(
            lambda: make_scheme("RT-3", config, oracle_lookup=True),
            traces,
            context="oracle",
        )


    def test_fractional_llc_latency(self, config):
        fractional = config.with_overrides(llc_tag_latency=1.5)
        traces = replica_sweep_traces(fractional, straggler_accesses=1500)
        verify_all_kernels(
            lambda: make_scheme("RT-3", fractional), traces, context="fractional"
        )

    def test_cluster_replication(self, config):
        clustered = config.with_overrides(cluster_size=4)
        traces = replica_sweep_traces(clustered, straggler_accesses=1500)
        verify_all_kernels(
            lambda: make_scheme("RT-3", clustered), traces, context="cluster"
        )

    def test_observer_sees_every_replica_hit(self, config):
        """on_replica_access fires once per replica hit under both kernels."""

        class CountingObserver(ProtocolObserver):
            def __init__(self):
                self.replica_accesses = 0

            def on_replica_access(self, core, line_addr, is_write):
                self.replica_accesses += 1

        traces = replica_sweep_traces(config, straggler_accesses=1500)
        for kernel in ("reference", "fast"):
            observer = CountingObserver()
            engine = make_scheme("RT-1", config, observer=observer)
            stats = simulate(engine, traces, kernel=kernel)
            assert observer.replica_accesses == stats.counters["llc_replica_hits"] > 0
