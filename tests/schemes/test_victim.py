"""Victim Replication: placement rules and the exclusive L1/slice relation."""

import pytest

from repro.cache.entries import HomeEntry, ReplicaEntry
from repro.coherence.sharers import make_sharer_tracker
from repro.common.params import CacheGeometry, MachineConfig
from repro.common.types import MESIState, MissStatus
from repro.schemes.victim import VictimReplicationScheme
from tests.helpers import check_coherence, drive, read, write


@pytest.fixture
def engine(tiny_config):
    return VictimReplicationScheme(tiny_config)


def evict_from_l1(engine, core, line, start=0.0):
    """Evict ``line`` from the core's L1-D by filling its set."""
    sets = engine.config.l1d.sets
    ways = engine.config.l1d.ways
    fillers = [line + sets * (k + 1) for k in range(ways)]
    drive(engine, [read(core, filler) for filler in fillers], start_time=start)


class TestVictimPlacement:
    def test_remote_victim_placed_in_local_slice(self, engine):
        drive(engine, [read(0, 5)])  # home = core 1
        evict_from_l1(engine, 0, 5, start=100.0)  # evicts line 5 from L1
        assert engine.slices[0].replica(5) is not None
        assert engine.stats.counters["vr_placements"] >= 1

    def test_local_home_victim_not_replicated(self, engine):
        drive(engine, [read(0, 4)])  # home = core 0
        evict_from_l1(engine, 0, 4, start=100.0)
        assert engine.slices[0].replica(4) is None

    def test_placement_requires_cheap_candidate(self):
        """With every way holding a home line with sharers, VR refuses."""
        config = MachineConfig.tiny(llc_slice=CacheGeometry(sets=2, ways=2))
        engine = VictimReplicationScheme(config)
        # Lines 0 and 8 home at core 0 and share its slice set 0 under the
        # hashed index; core 1 keeps them in its L1, so both ways of that
        # set hold home lines with active sharers.
        drive(engine, [read(1, 0), read(1, 8)])
        # Core 0 reads three remote lines sharing its L1 set; the third
        # evicts line 5, whose slice-0 target set is the full set 0.
        drive(engine, [read(0, 5), read(0, 9), read(0, 13)], start_time=1000.0)
        assert engine.stats.counters["l1_evictions"] >= 1
        assert engine.stats.counters.get("vr_placement_rejected", 0) >= 1
        assert engine.slices[0].replica(5) is None
        assert check_coherence(engine) == []


def lines_in_set(geometry, set_index, residue, count, num_cores=4):
    """``count`` lines with ``line % num_cores == residue`` in one slice set."""
    found = []
    line = residue
    while len(found) < count:
        if geometry.set_index(line) == set_index:
            found.append(line)
        line += num_cores
    return found


class TestSetLocalVictimSearch:
    """``_make_victim_room`` only considers the victim's own slice set:
    a cheaper candidate in another set is never evicted for it."""

    @pytest.fixture
    def slice0(self, engine):
        llc = engine.slices[0]
        geometry = llc.geometry
        assert geometry.ways == 4
        victim_line = 1  # homed at core 1, so a VR placement candidate
        target = geometry.set_index(victim_line)
        other = (target + 1) % geometry.sets
        return llc, victim_line, target, other

    def _home(self, engine, line, sharers=()):
        entry = HomeEntry(
            line, make_sharer_tracker(engine.config.num_cores, engine.config.ackwise_pointers)
        )
        for core in sharers:
            entry.sharers.add(core)
        return entry

    def _replica(self, line):
        return ReplicaEntry(line, MESIState.SHARED, reuse_max=3)

    def test_oldest_same_set_replica_is_evicted(self, engine, slice0):
        llc, victim_line, target, other = slice0
        geometry = llc.geometry
        (far_replica,) = lines_in_set(geometry, other, 2, 1)
        llc.insert(self._replica(far_replica))  # oldest entry in the slice
        shared_home, free_home = lines_in_set(geometry, target, 0, 2)
        young, old = lines_in_set(geometry, target, 3, 2)
        llc.insert(self._home(engine, shared_home, sharers=[1]))
        llc.insert(self._replica(young))
        llc.insert(self._replica(old))
        llc.insert(self._home(engine, free_home))
        llc.touch(llc.lookup(young))  # insertion order != recency order

        assert engine._make_victim_room(0, victim_line, now=0.0)
        assert llc.lookup(old) is None
        for survivor in (far_replica, shared_home, free_home, young):
            assert llc.lookup(survivor) is not None
        assert engine.stats.counters["replica_evictions"] == 1

    def test_oldest_same_set_sharerless_home_is_evicted(self, engine, slice0):
        llc, victim_line, target, other = slice0
        geometry = llc.geometry
        (far_replica,) = lines_in_set(geometry, other, 2, 1)
        (far_free_home,) = lines_in_set(geometry, other, 0, 1)
        llc.insert(self._replica(far_replica))
        llc.insert(self._home(engine, far_free_home))
        shared_a, young, shared_b, old = lines_in_set(geometry, target, 0, 4)
        llc.insert(self._home(engine, shared_a, sharers=[2]))
        llc.insert(self._home(engine, young))
        llc.insert(self._home(engine, shared_b, sharers=[3]))
        llc.insert(self._home(engine, old))
        llc.touch(llc.lookup(young))

        assert engine._make_victim_room(0, victim_line, now=0.0)
        assert llc.lookup(old) is None
        for survivor in (far_replica, far_free_home, shared_a, young, shared_b):
            assert llc.lookup(survivor) is not None
        assert engine.stats.counters["home_evictions"] == 1

    def test_cheap_candidates_elsewhere_do_not_make_room(self, engine, slice0):
        llc, victim_line, target, other = slice0
        geometry = llc.geometry
        (far_replica,) = lines_in_set(geometry, other, 2, 1)
        (far_free_home,) = lines_in_set(geometry, other, 0, 1)
        llc.insert(self._replica(far_replica))
        llc.insert(self._home(engine, far_free_home))
        shared = lines_in_set(geometry, target, 0, 4)
        for line in shared:
            llc.insert(self._home(engine, line, sharers=[1]))

        assert not engine._make_victim_room(0, victim_line, now=0.0)
        assert len(llc) == 6


class TestExclusiveRelation:
    def test_replica_hit_moves_line_to_l1(self, engine):
        drive(engine, [read(0, 5)])
        evict_from_l1(engine, 0, 5, start=100.0)
        assert engine.slices[0].replica(5) is not None
        (result,) = drive(engine, [read(0, 5)], start_time=50000.0)
        assert result.status == MissStatus.LLC_REPLICA_HIT
        assert engine.slices[0].replica(5) is None  # moved out
        assert engine.l1d[0].lookup(5) is not None

    def test_dirty_data_travels_with_the_line(self, engine):
        drive(engine, [write(0, 5)])
        evict_from_l1(engine, 0, 5, start=100.0)
        replica = engine.slices[0].replica(5)
        assert replica is not None
        assert replica.dirty or replica.state == MESIState.MODIFIED
        drive(engine, [read(0, 5)], start_time=50000.0)
        entry = engine.l1d[0].lookup(5)
        assert entry.dirty or entry.state == MESIState.MODIFIED

    def test_each_hit_costs_an_llc_write_later(self, engine):
        """The hit/evict ping-pong pays LLC data writes (Section 4.1)."""
        from repro.energy import model as events
        drive(engine, [read(0, 5)])
        evict_from_l1(engine, 0, 5, start=100.0)
        writes_before = engine.stats.energy_counts[events.LLC_DATA_WRITE]
        drive(engine, [read(0, 5)], start_time=50000.0)   # hit: moves to L1
        evict_from_l1(engine, 0, 5, start=60000.0)          # evict: writes back
        writes_after = engine.stats.energy_counts[events.LLC_DATA_WRITE]
        assert writes_after > writes_before


class TestWriteSemantics:
    def test_modified_replica_serves_write(self, engine):
        drive(engine, [write(0, 5)])
        evict_from_l1(engine, 0, 5, start=100.0)
        (result,) = drive(engine, [write(0, 5)], start_time=50000.0)
        assert result.status == MissStatus.LLC_REPLICA_HIT

    def test_shared_replica_cannot_serve_write(self, engine):
        drive(engine, [read(0, 5), read(1, 5)])  # both S
        evict_from_l1(engine, 0, 5, start=100.0)
        (result,) = drive(engine, [write(0, 5)], start_time=50000.0)
        assert result.status != MissStatus.LLC_REPLICA_HIT
        assert engine.slices[0].replica(5) is None  # collected by the write

    def test_remote_write_invalidates_replica(self, engine):
        drive(engine, [read(0, 5)])
        evict_from_l1(engine, 0, 5, start=100.0)
        assert engine.slices[0].replica(5) is not None
        drive(engine, [write(2, 5)], start_time=50000.0)
        assert engine.slices[0].replica(5) is None


class TestCoherence:
    def test_invariants_under_mixed_traffic(self, engine):
        import random
        rng = random.Random(11)
        accesses = []
        for _ in range(400):
            core = rng.randrange(4)
            line = rng.randrange(40)
            accesses.append(write(core, line) if rng.random() < 0.25 else read(core, line))
        drive(engine, accesses)
        assert check_coherence(engine) == []
