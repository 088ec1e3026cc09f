"""LLC slice: home/replica coexistence rules."""

import pytest

from repro.cache.entries import HomeEntry, ReplicaEntry
from repro.cache.llc import LLCSlice
from repro.cache.replacement import ModifiedLRUPolicy
from repro.coherence.sharers import FullMapSharers
from repro.common.params import CacheGeometry
from repro.common.types import MESIState


@pytest.fixture
def llc():
    return LLCSlice(0, CacheGeometry(sets=4, ways=2), ModifiedLRUPolicy())


def _home(addr):
    return HomeEntry(addr, FullMapSharers())


def _replica(addr):
    return ReplicaEntry(addr, MESIState.SHARED, reuse_max=3)


class TestTypedLookups:
    def test_home_lookup(self, llc):
        llc.insert(_home(0))
        assert llc.home(0) is not None
        assert llc.replica(0) is None

    def test_replica_lookup(self, llc):
        llc.insert(_replica(0))
        assert llc.replica(0) is not None
        assert llc.home(0) is None

    def test_generic_lookup(self, llc):
        llc.insert(_home(0))
        assert llc.lookup(0) is not None
        assert llc.lookup(1) is None


class TestEitherOrInvariant:
    def test_home_then_replica_rejected(self, llc):
        llc.insert(_home(0))
        with pytest.raises(RuntimeError, match="cannot insert"):
            llc.insert(_replica(0))

    def test_replica_then_home_rejected(self, llc):
        llc.insert(_replica(0))
        with pytest.raises(RuntimeError, match="cannot insert"):
            llc.insert(_home(0))

    def test_replace_after_remove(self, llc):
        llc.insert(_replica(0))
        llc.remove(0)
        llc.insert(_home(0))
        assert llc.home(0) is not None


class TestCounts:
    def test_replica_and_home_counts(self, llc):
        llc.insert(_home(0))
        llc.insert(_home(1))
        llc.insert(_replica(2))
        assert llc.home_count() == 2
        assert llc.replica_count() == 1
        assert len(llc) == 3

    def test_replica_reuse_starts_at_one(self, llc):
        replica = _replica(0)
        assert replica.reuse.value == 1

    def test_utilization(self, llc):
        assert llc.utilization() == 0.0
        llc.insert(_home(0))
        assert llc.utilization() == pytest.approx(1 / 8)


class TestSetEntries:
    def test_passes_through_to_the_array(self):
        geometry = CacheGeometry(sets=4, ways=4, index_shift=2)
        llc = LLCSlice(0, geometry, ModifiedLRUPolicy())
        entries = [_home(0), _replica(5), _home(10), _replica(15), _home(1)]
        for entry in entries:
            llc.insert(entry)
        target = geometry.set_index(0)
        same_set = [e for e in entries if geometry.set_index(e.line_addr) == target]
        assert len(same_set) > 1
        assert llc.set_entries(0) == same_set
