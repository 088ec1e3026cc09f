"""Timing model vs closed-form predictions (exact, contention-free)."""

import pytest

from repro.common.params import MachineConfig
from repro.common.types import AccessType, MissStatus
from repro.schemes.locality import LocalityAwareScheme
from repro.schemes.snuca import SNucaScheme
from repro.sim import validation
from tests.helpers import access_once, drive, read


@pytest.fixture
def config():
    return MachineConfig.tiny()


class TestL1Hit:
    def test_exact(self, config):
        engine = SNucaScheme(config)
        drive(engine, [read(0, 5)])
        result = access_once(engine, 0, AccessType.READ, 5, 1000.0)
        assert result.latency == validation.l1_hit_latency(config)


class TestHomeHits:
    def test_local_home_hit_exact(self, config):
        engine = SNucaScheme(config)
        # Line 4 homes at core 0; two priming readers leave it in clean S
        # with no exclusive owner to downgrade.
        drive(engine, [read(1, 4), read(2, 4)])
        result = access_once(engine, 0, AccessType.READ, 4, 10000.0)
        assert result.status == MissStatus.LLC_HOME_HIT
        assert result.latency == validation.local_home_hit_latency(config)

    def test_remote_home_hit_exact(self, config):
        engine = SNucaScheme(config)
        drive(engine, [read(1, 7), read(2, 7)])   # line 7 homes at core 3
        result = access_once(engine, 0, AccessType.READ, 7, 10000.0)
        assert result.status == MissStatus.LLC_HOME_HIT
        expected = validation.remote_home_hit_latency(config, requester=0, home=3)
        assert result.latency == expected

    def test_remote_home_hit_with_probe(self, config):
        """The locality scheme pays a failed local tag probe first."""
        tuned = config.with_overrides(replication_threshold=3)
        engine = LocalityAwareScheme(tuned)
        # First touch makes the page private at core 2; the second reader
        # triggers the shared migration (and becomes exclusive owner at
        # the new home), and the third settles the line into clean S.
        drive(engine, [read(2, 103), read(1, 103), read(2, 103)])
        result = access_once(engine, 0, AccessType.READ, 103, 10000.0)
        assert result.status == MissStatus.LLC_HOME_HIT
        expected = validation.remote_home_hit_latency(
            tuned, requester=0, home=3, probe=True
        )
        assert result.latency == expected


class TestReplicaHit:
    def test_replica_hit_exact(self, config):
        tuned = config.with_overrides(replication_threshold=1)
        engine = LocalityAwareScheme(tuned)
        drive(engine, [read(2, 101), read(3, 101)])
        drive(engine, [read(0, 101)], start_time=1000.0)  # replica created
        # Force the L1 copy out without touching the replica.
        engine.l1d[0].invalidate(101)
        result = access_once(engine, 0, AccessType.READ, 101, 50000.0)
        assert result.status == MissStatus.LLC_REPLICA_HIT
        assert result.latency == validation.replica_hit_latency(tuned)


class TestOffchipMiss:
    def test_offchip_exact(self, config):
        engine = SNucaScheme(config)
        result = access_once(engine, 0, AccessType.READ, 7, 0.0)  # cold, home 3
        assert result.status == MissStatus.OFF_CHIP_MISS
        controller = engine.dram.controller_for(7)
        expected = validation.offchip_miss_latency(
            config, requester=0, home=3, controller_tile=controller.core_id
        )
        assert result.latency == expected

    def test_offchip_dominates_home_hit(self, config):
        controller_tile = 0
        assert validation.offchip_miss_latency(
            config, 0, 3, controller_tile
        ) > validation.remote_home_hit_latency(config, 0, 3)


class TestMessageLatency:
    def test_zero_hops_free(self, config):
        assert validation.message_latency(config, 0, 9) == 0.0

    def test_matches_mesh_unloaded(self, config):
        from repro.network.mesh import Mesh
        mesh = Mesh(config)
        for src in range(config.num_cores):
            for dst in range(config.num_cores):
                hops = mesh.topology.hops(src, dst)
                for flits in (1, 9):
                    if src == dst:
                        continue
                    assert validation.message_latency(config, hops, flits) == \
                        mesh.unloaded_latency(src, dst, flits)
