"""End-to-end behaviour of the locality-aware replication protocol."""

import pytest

from repro.common.params import MachineConfig
from repro.common.types import MESIState, MissStatus
from repro.schemes.locality import LocalityAwareScheme
from tests.helpers import check_coherence, drive, find_replica, ifetch, read, write


def rt1_engine(**overrides):
    config = MachineConfig.tiny(replication_threshold=1, **overrides)
    return LocalityAwareScheme(config)


def rt3_engine(**overrides):
    config = MachineConfig.tiny(replication_threshold=3, **overrides)
    return LocalityAwareScheme(config)


def make_shared(engine, line, cores=(2, 3)):
    """Touch a line from two cores so its page classifies as shared."""
    drive(engine, [read(cores[0], line), read(cores[1], line)])


def churn_l1d(engine, core, base, start=0.0):
    """Evict everything from a core's L1-D with private filler reads."""
    lines = engine.config.l1d.lines
    drive(
        engine,
        [read(core, base + offset) for offset in range(lines)],
        start_time=start,
    )


class TestReplicaCreation:
    def test_rt1_creates_replica_on_first_home_read(self):
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [read(0, 101)], start_time=1000.0)
        replica = find_replica(engine, 0, 101)
        assert replica is not None
        assert engine.stats.counters["replicas_created"] >= 1

    def test_rt3_needs_three_home_accesses(self):
        engine = rt3_engine()
        make_shared(engine, 101)
        # Each round: read at home (L1 churn in between forces re-requests).
        for round_index in range(2):
            drive(engine, [read(0, 101)], start_time=1000.0 * (round_index + 1))
            churn_l1d(engine, 0, 100000 + round_index * 1000,
                      start=1000.0 * (round_index + 1) + 100)
            assert find_replica(engine, 0, 101) is None
        drive(engine, [read(0, 101)], start_time=5000.0)
        assert find_replica(engine, 0, 101) is not None
        assert engine.stats.counters["promotions"] >= 1

    def test_no_replica_when_home_is_local(self):
        """R-NUCA places private pages locally; the home IS the slice."""
        engine = rt1_engine()
        drive(engine, [read(0, 100)])  # first touch -> private at core 0
        assert engine.slices[0].home(100) is not None
        assert find_replica(engine, 0, 100) is None

    def test_instruction_replication(self):
        """Unlike R-NUCA, instructions replicate like any other line."""
        engine = rt1_engine()
        drive(engine, [ifetch(2, 101), ifetch(3, 101)])  # page -> shared
        drive(engine, [ifetch(0, 101)], start_time=1000.0)
        assert find_replica(engine, 0, 101) is not None


class TestReplicaHits:
    def test_replica_hit_after_l1_eviction(self):
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [read(0, 101)], start_time=1000.0)
        churn_l1d(engine, 0, 100000, start=2000.0)
        (result,) = drive(engine, [read(0, 101)], start_time=50000.0)
        assert result.status == MissStatus.LLC_REPLICA_HIT
        assert engine.stats.counters["llc_replica_hits"] == 1

    def test_replica_reuse_counter_increments(self):
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [read(0, 101)], start_time=1000.0)
        churn_l1d(engine, 0, 100000, start=2000.0)
        drive(engine, [read(0, 101)], start_time=50000.0)
        assert find_replica(engine, 0, 101).reuse == 2

    def test_replica_hit_faster_than_home(self):
        engine = rt1_engine()
        make_shared(engine, 103)  # home = core 3, far from core 0
        (home_access,) = drive(engine, [read(0, 103)], start_time=1000.0)
        churn_l1d(engine, 0, 100000, start=2000.0)
        (replica_hit,) = drive(engine, [read(0, 103)], start_time=50000.0)
        assert replica_hit.latency < home_access.latency


class TestWritePath:
    def test_shared_replica_cannot_satisfy_write(self):
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [read(0, 101)], start_time=1000.0)
        (result,) = drive(engine, [write(0, 101)], start_time=2000.0)
        assert result.status != MissStatus.LLC_REPLICA_HIT

    def test_write_creates_modified_replica(self):
        """RT-1 write promotion materializes an M-state replica."""
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [write(0, 101)], start_time=1000.0)
        replica = find_replica(engine, 0, 101)
        assert replica is not None
        assert replica.state == MESIState.MODIFIED

    def test_modified_replica_serves_write_locally(self):
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [write(0, 101)], start_time=1000.0)
        churn_l1d(engine, 0, 100000, start=2000.0)
        (result,) = drive(engine, [write(0, 101)], start_time=50000.0)
        assert result.status == MissStatus.LLC_REPLICA_HIT

    def test_write_invalidates_remote_replicas(self):
        engine = rt1_engine()
        make_shared(engine, 101)
        drive(engine, [read(0, 101)], start_time=1000.0)
        assert find_replica(engine, 0, 101) is not None
        drive(engine, [write(1, 101)], start_time=2000.0)
        assert find_replica(engine, 0, 101) is None
        assert engine.stats.counters["replica_invalidations"] >= 1

    def test_migratory_data_gets_em_replicas(self):
        """Repeated solo read+write visits promote the writer; the replica
        is created in M so later visits stay local (Section 2.3.1)."""
        engine = rt3_engine()
        make_shared(engine, 101)
        for round_index in range(3):
            start = 10000.0 * (round_index + 1)
            drive(engine, [read(0, 101), write(0, 101)], start_time=start)
            churn_l1d(engine, 0, 100000 + round_index * 1000, start=start + 500)
        replica = find_replica(engine, 0, 101)
        assert replica is not None
        assert replica.state == MESIState.MODIFIED


class TestDemotion:
    def test_invalidation_with_low_reuse_demotes(self):
        engine = rt3_engine()
        make_shared(engine, 101)
        # Promote core 0 the honest way.
        for round_index in range(3):
            start = 10000.0 * (round_index + 1)
            drive(engine, [read(0, 101)], start_time=start)
            churn_l1d(engine, 0, 100000 + round_index * 1000, start=start + 500)
        # First write: residual home reuse keeps replica status.
        drive(engine, [write(1, 101)], start_time=50000.0)
        # Re-fetch creates a fresh replica (reuse 1), then a write lands
        # before any further reuse: XReuse = 1 < 3 -> demote.
        drive(engine, [read(0, 101)], start_time=60000.0)
        assert find_replica(engine, 0, 101) is not None
        drive(engine, [write(1, 101)], start_time=70000.0)
        assert engine.stats.counters["demotions"] >= 1
        # The next fetch by core 0 must NOT create a replica.
        drive(engine, [read(0, 101)], start_time=80000.0)
        assert find_replica(engine, 0, 101) is None

    def test_coherence_invariants_throughout(self):
        engine = rt1_engine()
        import random
        rng = random.Random(7)
        accesses = []
        for _ in range(400):
            core = rng.randrange(4)
            line = rng.randrange(32)
            accesses.append(write(core, line) if rng.random() < 0.3 else read(core, line))
        drive(engine, accesses)
        assert check_coherence(engine) == []


class TestOracleLookup:
    def test_oracle_skips_probe_cost_on_miss(self):
        config = MachineConfig.tiny(replication_threshold=3)
        probe_engine = LocalityAwareScheme(config)
        oracle_engine = LocalityAwareScheme(config, oracle_lookup=True)
        for engine in (probe_engine, oracle_engine):
            make_shared(engine, 101)
        (with_probe,) = drive(probe_engine, [read(0, 101)], start_time=1000.0)
        (with_oracle,) = drive(oracle_engine, [read(0, 101)], start_time=1000.0)
        assert with_oracle.latency == with_probe.latency - config.llc_tag_latency

    def test_oracle_still_hits_replicas(self):
        engine = LocalityAwareScheme(
            MachineConfig.tiny(replication_threshold=1), oracle_lookup=True
        )
        make_shared(engine, 101)
        drive(engine, [read(0, 101)], start_time=1000.0)
        churn_l1d(engine, 0, 100000, start=2000.0)
        (result,) = drive(engine, [read(0, 101)], start_time=50000.0)
        assert result.status == MissStatus.LLC_REPLICA_HIT


class TestEnergyModel:
    def test_directory_energy_scaled(self):
        engine = rt3_engine()
        assert engine.energy_model().params.directory_scale == pytest.approx(1.2)

    def test_counter_width_follows_rt(self):
        engine = LocalityAwareScheme(MachineConfig.tiny(replication_threshold=8))
        assert engine.reuse_max >= 8
