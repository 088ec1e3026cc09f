"""Set-associative array mechanics."""

import random

import pytest

from repro.cache.array import SetAssociativeCache
from repro.cache.entries import CacheLine
from repro.cache.replacement import LRUPolicy
from repro.common.params import CacheGeometry
from repro.common.types import MESIState


@pytest.fixture
def cache():
    return SetAssociativeCache(CacheGeometry(sets=4, ways=2), LRUPolicy())


def _entry(addr):
    return CacheLine(addr, MESIState.SHARED)


class TestLookup:
    def test_miss_returns_none(self, cache):
        assert cache.lookup(0x10) is None

    def test_insert_then_lookup(self, cache):
        cache.insert(_entry(0x10))
        found = cache.lookup(0x10)
        assert found is not None
        assert found.line_addr == 0x10

    def test_access_updates_lru(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))  # same set (4 sets)
        cache.access(0)  # line 0 becomes MRU
        victim = cache.victim_for(8)
        assert victim.line_addr == 4


class TestVictimSelection:
    def test_no_victim_with_free_way(self, cache):
        cache.insert(_entry(0))
        assert cache.victim_for(4) is None

    def test_victim_when_set_full(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.victim_for(8) is not None

    def test_no_victim_when_line_resident(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.victim_for(0) is None  # replaces itself

    def test_other_sets_unaffected(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.victim_for(1) is None  # different set


class TestInsertion:
    def test_insert_into_full_set_raises(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        with pytest.raises(RuntimeError, match="full set"):
            cache.insert(_entry(8))

    def test_insert_after_eviction(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        victim = cache.victim_for(8)
        cache.remove(victim.line_addr)
        cache.insert(_entry(8))
        assert cache.lookup(8) is not None
        assert len(cache) == 2

    def test_reinsert_same_line(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(0))
        assert len(cache) == 1


class TestRemoval:
    def test_remove_returns_entry(self, cache):
        cache.insert(_entry(0x20))
        removed = cache.remove(0x20)
        assert removed.line_addr == 0x20
        assert cache.lookup(0x20) is None

    def test_remove_missing_returns_none(self, cache):
        assert cache.remove(0x20) is None


class TestInspection:
    def test_iteration_covers_all(self, cache):
        for addr in (0, 1, 2, 3):
            cache.insert(_entry(addr))
        assert {entry.line_addr for entry in cache} == {0, 1, 2, 3}

    def test_utilization(self, cache):
        assert cache.utilization() == 0.0
        for addr in range(4):
            cache.insert(_entry(addr))
        assert cache.utilization() == pytest.approx(0.5)

    def test_set_occupancy(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.set_occupancy(0) == 2
        assert cache.set_occupancy(1) == 0

    def test_capacity_never_exceeded(self, cache):
        """Inserting with proper eviction keeps every set within ways."""
        for addr in range(64):
            victim = cache.victim_for(addr)
            if victim is not None:
                cache.remove(victim.line_addr)
            cache.insert(_entry(addr))
        assert len(cache) <= cache.geometry.lines
        for set_index in range(cache.geometry.sets):
            assert cache.set_occupancy(set_index) <= cache.geometry.ways


class TestSetEntries:
    def test_plain_index_returns_the_set_in_insertion_order(self, cache):
        for addr in (4, 1, 0, 9):
            cache.insert(_entry(addr))
        assert [entry.line_addr for entry in cache.set_entries(8)] == [4, 0]
        assert [entry.line_addr for entry in cache.set_entries(5)] == [1, 9]
        assert cache.set_entries(2) == []

    def test_result_is_a_snapshot(self, cache):
        cache.insert(_entry(0))
        entries = cache.set_entries(0)
        cache.remove(0)
        assert [entry.line_addr for entry in entries] == [0]

    @pytest.mark.parametrize(
        "geometry",
        [CacheGeometry(sets=64, ways=4), CacheGeometry(sets=16, ways=8, index_shift=4)],
        ids=["l1-plain", "llc-hashed"],
    )
    def test_matches_a_filtered_walk_of_the_array(self, geometry):
        """``set_entries`` is the whole-array walk filtered on
        ``geometry.set_index``, in the same order."""
        cache = SetAssociativeCache(geometry, LRUPolicy())
        rng = random.Random(7)
        for _ in range(2000):
            addr = rng.randrange(1 << 14)
            if cache.lookup(addr) is not None:
                cache.access(addr)
                continue
            victim = cache.victim_for(addr)
            if victim is not None:
                cache.remove(victim.line_addr)
            cache.insert(_entry(addr))
        for _ in range(300):
            probe = rng.randrange(1 << 14)
            wanted = geometry.set_index(probe)
            walked = [e for e in cache if geometry.set_index(e.line_addr) == wanted]
            assert cache.set_entries(probe) == walked
