"""Directory protocol flows on the S-NUCA engine (the common machinery)."""

import pytest

from repro.common.params import MachineConfig
from repro.cache.llc import LLCSlice
from repro.common.types import AccessType, MESIState, MissStatus
from repro.dram.controller import DramSystem
from repro.network.mesh import Mesh
from repro.schemes.asr import ASRScheme
from repro.schemes.base import ProtocolEngine
from repro.schemes.locality import LocalityAwareScheme
from repro.schemes.snuca import SNucaScheme
from repro.schemes.victim import VictimReplicationScheme
from tests.helpers import check_coherence, drive, read, write


@pytest.fixture
def engine(tiny_config):
    return SNucaScheme(tiny_config)


class TestReadPath:
    def test_cold_read_misses_offchip(self, engine):
        (result,) = drive(engine, [read(0, 5)])
        assert result.status == MissStatus.OFF_CHIP_MISS
        assert engine.stats.counters["offchip_misses"] == 1

    def test_sole_reader_granted_exclusive(self, engine):
        drive(engine, [read(0, 5)])
        assert engine.l1d[0].lookup(5).state == MESIState.EXCLUSIVE

    def test_second_access_hits_l1(self, engine):
        results = drive(engine, [read(0, 5), read(0, 5)])
        assert results[1].status == MissStatus.L1_HIT
        assert results[1].latency == engine.config.l1_latency

    def test_second_reader_hits_home(self, engine):
        results = drive(engine, [read(0, 5), read(1, 5)])
        assert results[1].status == MissStatus.LLC_HOME_HIT

    def test_second_reader_downgrades_owner(self, engine):
        drive(engine, [read(0, 5), read(1, 5)])
        assert engine.l1d[0].lookup(5).state == MESIState.SHARED
        assert engine.l1d[1].lookup(5).state == MESIState.SHARED
        assert engine.stats.counters["downgrades"] == 1

    def test_directory_tracks_both_readers(self, engine):
        drive(engine, [read(0, 5), read(1, 5)])
        home = engine.slices[5 % 4].home(5)
        assert home.sharers.members() == {0, 1}

    def test_home_hit_at_local_slice_cheap(self, engine):
        """A request whose home is the local slice never crosses the mesh."""
        drive(engine, [read(0, 4), read(0, 100)])  # line 4 homes at core 0
        flits_before = engine.mesh.messages_sent
        engine.l1d[0].invalidate(4)  # force an L1 miss without traffic
        home = engine.slices[0].home(4)
        home.sharers.remove(0)
        (result,) = drive(engine, [read(0, 4)], start_time=1000.0)
        assert result.status == MissStatus.LLC_HOME_HIT


class TestWritePath:
    def test_write_grants_modified(self, engine):
        drive(engine, [write(0, 5)])
        entry = engine.l1d[0].lookup(5)
        assert entry.state == MESIState.MODIFIED
        assert entry.dirty

    def test_write_invalidates_readers(self, engine):
        drive(engine, [read(1, 5), read(2, 5), write(0, 5)])
        assert engine.l1d[1].lookup(5) is None
        assert engine.l1d[2].lookup(5) is None
        assert engine.stats.counters["invalidations_sent"] >= 2

    def test_write_leaves_single_sharer(self, engine):
        drive(engine, [read(1, 5), write(0, 5)])
        home = engine.slices[5 % 4].home(5)
        assert home.sharers.members() == {0}
        assert home.owner == 0

    def test_dirty_owner_writes_back_on_read(self, engine):
        drive(engine, [write(0, 5), read(1, 5)])
        home = engine.slices[5 % 4].home(5)
        assert home.dirty
        assert engine.stats.counters["dirty_writebacks"] >= 1

    def test_upgrade_from_shared(self, engine):
        drive(engine, [read(0, 5), read(1, 5), write(0, 5)])
        assert engine.l1d[0].lookup(5).state == MESIState.MODIFIED
        assert engine.l1d[1].lookup(5) is None

    def test_write_write_migration(self, engine):
        drive(engine, [write(0, 5), write(1, 5)])
        assert engine.l1d[0].lookup(5) is None
        assert engine.l1d[1].lookup(5).state == MESIState.MODIFIED


class TestCoherenceInvariants:
    def test_after_read_sharing(self, engine):
        drive(engine, [read(core, line) for core in range(4) for line in (5, 9, 13)])
        assert check_coherence(engine) == []

    def test_after_write_storm(self, engine):
        accesses = []
        for turn in range(6):
            for core in range(4):
                accesses.append(write(core, 7))
                accesses.append(read(core, 11))
        drive(engine, accesses)
        assert check_coherence(engine) == []

    def test_after_mixed_traffic(self, engine):
        import random
        rng = random.Random(42)
        accesses = []
        for _ in range(300):
            core = rng.randrange(4)
            line = rng.randrange(24)
            kind = write if rng.random() < 0.3 else read
            accesses.append(kind(core, line))
        drive(engine, accesses)
        assert check_coherence(engine) == []


class TestL1Eviction:
    def test_eviction_notifies_home(self, engine, tiny_config):
        """Filling an L1 set evicts the LRU line and removes the sharer."""
        # Lines 0, 16, 32 share L1 set 0 (4 sets) but have distinct homes.
        drive(engine, [read(0, 0), read(0, 16), read(0, 32)])
        assert engine.stats.counters["l1_evictions"] == 1
        home = engine.slices[0].home(0)
        assert home is not None
        assert 0 not in home.sharers.members()

    def test_dirty_eviction_merges_at_home(self, engine):
        drive(engine, [write(0, 16), read(0, 0), read(0, 32)])
        home = engine.slices[0].home(16)
        assert home.dirty


class TestHomeEviction:
    def test_back_invalidation_on_home_eviction(self, tiny_config):
        """Evicting a home line invalidates every L1 copy (inclusion)."""
        from repro.common.params import CacheGeometry
        config = MachineConfig.tiny(llc_slice=CacheGeometry(sets=1, ways=2))
        engine = SNucaScheme(config)
        # Three lines homed at core 0 overflow its 2-way slice.
        drive(engine, [read(1, 0), read(1, 4), read(1, 8)])
        assert engine.stats.counters["home_evictions"] >= 1
        assert check_coherence(engine) == []

    def test_inclusion_holds_under_pressure(self):
        from repro.common.params import CacheGeometry
        config = MachineConfig.tiny(llc_slice=CacheGeometry(sets=2, ways=2))
        engine = SNucaScheme(config)
        accesses = [read(core, line) for line in range(0, 64, 4) for core in range(4)]
        drive(engine, accesses)
        assert check_coherence(engine) == []


class TestAckwiseBroadcast:
    def test_overflow_broadcasts_invalidations(self):
        config = MachineConfig.small(ackwise_pointers=2)
        engine = SNucaScheme(config)
        readers = [read(core, 5) for core in range(6)]
        drive(engine, readers + [write(6, 5)])
        assert engine.stats.counters["broadcast_invalidations"] >= 1
        # Broadcast sends an invalidation to every core.
        assert engine.stats.counters["invalidations_sent"] >= config.num_cores - 1
        assert check_coherence(engine) == []


class TestLatencyAccounting:
    def test_l1_hit_is_one_cycle(self, engine):
        results = drive(engine, [read(0, 5), read(0, 5)])
        assert results[1].latency == 1

    def test_remote_home_slower_than_local(self, engine):
        remote = drive(engine, [read(0, 7)])[0]     # home = core 3
        local = drive(engine, [read(3, 11)], start_time=10000.0)[0]  # home = 3
        assert remote.latency > local.latency

    def test_offchip_slower_than_home_hit(self, engine):
        miss = drive(engine, [read(0, 5)])[0]
        engine.l1d[0].invalidate(5)
        engine.slices[1].home(5).sharers.remove(0)
        hit = drive(engine, [read(0, 5)], start_time=10000.0)[0]
        assert miss.latency > hit.latency
        assert miss.latency >= engine.config.dram_latency_cycles

    def test_waiting_bucket_counts_serialization(self, engine):
        """Back-to-back requests to one line serialize at the home."""
        from repro.sim import stats as stat_names
        drive(engine, [read(0, 5)])
        engine.access(1, AccessType.READ, 5, 1000.0)
        engine.access(2, AccessType.READ, 5, 1000.0)
        assert engine.stats.latency[stat_names.LLC_HOME_WAITING] > 0


class TestMissPathDispatchTax:
    """The miss path and the replica-hit path write the stats maps directly
    and read enum members as module names (a ``MESIState.X`` read goes
    through ``EnumType.__getattr__``'s slot wrapper on Python 3.11, and
    ``.writable`` is a Python property), and read the reuse bound from the
    engine rather than the ``MachineConfig.reuse_counter_max`` property.
    This keeps a well-meant cleanup from bringing the slower spellings
    back."""

    SLOW_NAMES = {
        "MESIState", "MissStatus", "bump", "energy_event", "add_latency", "stats",
        "writable", "reuse_counter_max",
    }

    @pytest.mark.parametrize("function", [
        ProtocolEngine._home_request,
        ProtocolEngine._service_read,
        ProtocolEngine._fetch_from_dram,
        ProtocolEngine.handle_l1_eviction,
        LocalityAwareScheme.local_lookup,
        ASRScheme.local_lookup,
        ASRScheme.handle_l1_eviction,
        VictimReplicationScheme.local_lookup,
        VictimReplicationScheme.handle_l1_eviction,
        ASRScheme.should_replicate,
        LLCSlice.insert,
        DramSystem.read,
        Mesh.send,
    ], ids=lambda function: function.__qualname__)
    def test_no_slow_lookups(self, function):
        assert self.SLOW_NAMES.isdisjoint(function.__code__.co_names)

    @staticmethod
    def _closure_names() -> set[str]:
        """Attribute, global and bound names the per-access closure reads."""
        code = VictimReplicationScheme(MachineConfig.tiny()).make_fast_access().__code__
        return set(code.co_names) | set(code.co_freevars)

    def test_fast_closure_has_no_slow_lookups(self):
        assert self.SLOW_NAMES.isdisjoint(self._closure_names())

    def test_no_dead_replica_probe_after_a_home_fill(self):
        """create_replica marks the replica it makes or finds, so the miss
        path never probes the slice again after the home transaction."""
        assert {"slices", "replica", "replica_slice_for"}.isdisjoint(self._closure_names())

    def test_off_chip_fill_binds_the_sharer_tracker_once(self):
        assert "make_sharer_tracker" not in ProtocolEngine._fetch_from_dram.__code__.co_names

    def test_fill_does_not_probe_the_slice(self):
        """A replica hit's local_lookup marks its replica and the home-fill
        path marks the one behind a home fill, so the L1 fill never
        re-probes the LLC slice."""
        assert {"slices", "replica", "replica_slice_for"}.isdisjoint(self._closure_names())

    def test_home_transaction_is_one_frame(self):
        assert not hasattr(ProtocolEngine, "_home_access")
        assert not hasattr(ProtocolEngine, "_resolve_home")


class TestAccessEntry:
    def test_plain_int_access_type_is_the_enum_member(self, tiny_config):
        by_member, by_int = SNucaScheme(tiny_config), SNucaScheme(tiny_config)
        by_member.access(0, AccessType.WRITE, 5, 0.0)
        by_int.access(0, int(AccessType.WRITE), 5, 0.0)
        assert by_int.l1d[0].lookup(5).state == MESIState.MODIFIED
        assert by_int.stats.to_dict() == by_member.stats.to_dict()
