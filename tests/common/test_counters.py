"""The replica reuse counter (Figure 4): a saturating int on ReplicaEntry.

A replica's counter starts at 1 and rises on every locality or ASR
replica hit until it saturates at the entry's ``reuse_max`` — the 2-bit
maximum of 3 by default, raised by the locality scheme so RT-8 can be
reached.  The hit paths do the saturating add inline on the int slot.
"""

from repro.cache.entries import ReplicaEntry
from repro.common.params import MachineConfig
from repro.common.types import MESIState, MissStatus
from repro.schemes.asr import ASRScheme
from repro.schemes.locality import LocalityAwareScheme
from tests.helpers import drive, find_replica, read


def locality_engine(rt):
    return LocalityAwareScheme(MachineConfig.tiny(replication_threshold=rt))


def planted_replica(engine, core=0, line=101):
    """A replica placed straight into ``core``'s slice, as create_replica
    would, so the test can drive the hit path directly."""
    replica = ReplicaEntry(line, MESIState.SHARED, engine.reuse_max)
    engine.slices[core].insert(replica)
    return replica


def hit(engine, core=0, line=101, times=1):
    for _ in range(times):
        local_hit, _probe_cost = engine.local_lookup(core, line, False, False, 0.0)
        assert local_hit is not None


def churn_l1d(engine, core, base, start):
    """Evict everything from a core's L1-D with private filler reads."""
    lines = engine.config.l1d.lines
    drive(engine, [read(core, base + offset) for offset in range(lines)], start_time=start)


class TestSaturatingCounter:
    def test_starts_at_initial(self):
        replica = ReplicaEntry(7, MESIState.SHARED, reuse_max=3)
        assert replica.reuse == 1
        assert replica.reuse_max == 3

    def test_increment(self):
        """Each locality replica hit served end to end adds one."""
        engine = locality_engine(rt=1)
        drive(engine, [read(2, 101), read(3, 101)])  # page -> shared
        drive(engine, [read(0, 101)], start_time=1000.0)
        assert find_replica(engine, 0, 101).reuse == 1
        for expected, start in ((2, 2000.0), (3, 60000.0)):
            churn_l1d(engine, 0, 100000, start=start)
            (result,) = drive(engine, [read(0, 101)], start_time=start + 40000.0)
            assert result.status == MissStatus.LLC_REPLICA_HIT
            assert find_replica(engine, 0, 101).reuse == expected

    def test_asr_hit_increments(self):
        engine = ASRScheme(MachineConfig.tiny(), replication_level=1.0)
        replica = planted_replica(engine, line=5)
        hit(engine, line=5)
        assert replica.reuse == 2

    def test_saturates_at_max(self):
        for engine in (locality_engine(rt=3), ASRScheme(MachineConfig.tiny())):
            replica = planted_replica(engine)
            hit(engine, times=5)
            assert replica.reuse == replica.reuse_max == 3

    def test_two_bit_counter_matches_paper(self):
        """A 2-bit counter saturates at 3, exactly reaching RT=3; RT-8's
        locality scheme widens the maximum to 8 and saturates there."""
        assert locality_engine(rt=3).reuse_max == (1 << 2) - 1
        engine = locality_engine(rt=8)
        assert engine.reuse_max == 8
        replica = planted_replica(engine)
        hit(engine, times=6)
        assert replica.reuse == 7
        hit(engine, times=6)
        assert replica.reuse == 8

    def test_int_conversion(self):
        """The counter is a plain int, and an invalidation reports it."""
        engine = locality_engine(rt=3)
        replica = planted_replica(engine)
        hit(engine, times=1)
        assert type(replica.reuse) is int
        _had_copy, _dirty, reuse = engine.invalidate_local_copies(0, 101, 0.0)
        assert reuse == 2
