"""Private L1 cache behaviour."""

import random

import pytest

from repro.cache.array import SetAssociativeCache
from repro.cache.entries import L1Line
from repro.cache.l1 import L1Cache
from repro.cache.replacement import LRUPolicy
from repro.common.params import CacheGeometry
from repro.common.types import MESIState


@pytest.fixture
def l1():
    return L1Cache(CacheGeometry(sets=2, ways=2))


class TestProbeHit:
    def test_read_hit_any_valid_state(self, l1):
        l1.fill(0, MESIState.SHARED)
        assert l1.probe_hit(0, write=False) is not None

    def test_write_hit_requires_writable(self, l1):
        l1.fill(0, MESIState.SHARED)
        assert l1.probe_hit(0, write=True) is None

    def test_write_hit_on_exclusive(self, l1):
        l1.fill(0, MESIState.EXCLUSIVE)
        assert l1.probe_hit(0, write=True) is not None

    def test_write_hit_on_modified(self, l1):
        l1.fill(0, MESIState.MODIFIED)
        assert l1.probe_hit(0, write=True) is not None

    def test_miss(self, l1):
        assert l1.probe_hit(0, write=False) is None


class TestInsert:
    def test_returns_victim_when_full(self, l1):
        l1.fill(0, MESIState.SHARED)
        l1.fill(2, MESIState.SHARED)  # same set (2 sets)
        _entry, victim = l1.fill(4, MESIState.SHARED)
        assert victim is not None
        assert victim.line_addr == 0  # LRU

    def test_upgrade_in_place(self, l1):
        l1.fill(0, MESIState.SHARED)
        entry, victim = l1.fill(0, MESIState.MODIFIED)
        assert victim is None
        assert entry.state == MESIState.MODIFIED
        assert len(l1) == 1

    def test_victim_preserves_dirty_flag(self, l1):
        entry, _ = l1.fill(0, MESIState.MODIFIED)
        entry.dirty = True
        l1.fill(2, MESIState.SHARED)
        _entry, victim = l1.fill(4, MESIState.SHARED)
        assert victim.dirty


class TestInvalidate:
    def test_removes_line(self, l1):
        l1.fill(0, MESIState.SHARED)
        removed = l1.invalidate(0)
        assert removed is not None
        assert l1.lookup(0) is None

    def test_missing_line(self, l1):
        assert l1.invalidate(0) is None


class TestDowngrade:
    def test_modified_reports_dirty(self, l1):
        entry, _ = l1.fill(0, MESIState.MODIFIED)
        assert l1.downgrade(0) is True
        assert entry.state == MESIState.SHARED
        assert not entry.dirty

    def test_clean_exclusive_not_dirty(self, l1):
        l1.fill(0, MESIState.EXCLUSIVE)
        assert l1.downgrade(0) is False
        assert l1.lookup(0).state == MESIState.SHARED

    def test_dirty_flag_reported(self, l1):
        entry, _ = l1.fill(0, MESIState.EXCLUSIVE)
        entry.dirty = True
        assert l1.downgrade(0) is True

    def test_missing_line(self, l1):
        assert l1.downgrade(0) is False


class _ArrayModel:
    """The L1 as a plain array driven through lookup -> victim_for ->
    remove -> insert: the reference ``fill``/``probe_hit`` must match."""

    def __init__(self, geometry):
        self.array = SetAssociativeCache(geometry, LRUPolicy())

    def fill(self, line_addr, state):
        existing = self.array.lookup(line_addr)
        if existing is not None:
            existing.state = state
            self.array.touch(existing)
            return existing, None
        victim = self.array.victim_for(line_addr)
        if victim is not None:
            self.array.remove(victim.line_addr)
        entry = L1Line(line_addr, state)
        self.array.insert(entry)
        return entry, victim

    def probe_hit(self, line_addr, write):
        entry = self.array.access(line_addr)
        if entry is None or (write and not entry.state.writable):
            return None
        return entry

    def invalidate(self, line_addr):
        return self.array.remove(line_addr)


def _view(entry):
    if entry is None:
        return None
    return entry.line_addr, entry.state, entry.dirty


def _by_recency(cache_set, timestamps):
    """A set's entries, least recently used first."""
    entries = list(cache_set.values())
    if timestamps:
        entries.sort(key=lambda entry: entry.last_use)
    return [_view(entry) for entry in entries]


def _contents(cache, timestamps):
    return [_by_recency(cache_set, timestamps) for cache_set in cache._sets]


class TestAgainstArrayModel:
    """The L1 keeps recency as each set's dict order; the timestamped array
    model must see the same victims and the same recency order per set."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "geometry",
        [
            CacheGeometry(sets=2, ways=2),
            CacheGeometry(sets=4, ways=4),
            CacheGeometry(sets=4, ways=2, index_shift=2),
            CacheGeometry(sets=8, ways=4, index_shift=3),
        ],
        ids=["2x2", "4x4", "4x2-hashed", "8x4-hashed"],
    )
    def test_same_victims_recency_and_sets(self, geometry, seed):
        rng = random.Random(seed)
        l1 = L1Cache(geometry)
        model = _ArrayModel(geometry)
        states = list(MESIState)
        for _ in range(3000):
            line_addr = rng.randrange(geometry.sets * geometry.ways * 3)
            op = rng.random()
            if op < 0.45:
                state = rng.choice(states)
                got, want = l1.fill(line_addr, state), model.fill(line_addr, state)
                assert [_view(e) for e in got] == [_view(e) for e in want]
            elif op < 0.9:
                write = rng.random() < 0.3
                got = l1.probe_hit(line_addr, write)
                assert _view(got) == _view(model.probe_hit(line_addr, write))
                if got is not None and write:
                    got.dirty = True
                    model.array.lookup(line_addr).dirty = True
            else:
                assert _view(l1.invalidate(line_addr)) == _view(model.invalidate(line_addr))
            assert _contents(l1, False) == _contents(model.array, True)
        assert len(l1) == len(model.array)


class TestInheritedRecencyMethods:
    """The L1's inherited array methods keep its recency in dict order, so
    no path can leave a set ordered by stale ``last_use`` timestamps."""

    def _full_set(self):
        l1 = L1Cache(CacheGeometry(sets=1, ways=3))
        for line_addr in (0, 1, 2):
            l1.fill(line_addr, MESIState.SHARED)
        for entry in l1:  # timestamps that disagree with the real recency
            entry.last_use = 100 - entry.line_addr
        return l1

    @pytest.mark.parametrize("use", [
        lambda l1: l1.access(0),
        lambda l1: l1.touch(l1.lookup(0)),
        lambda l1: l1.insert(L1Line(0, MESIState.SHARED)),
        lambda l1: l1.probe_hit(0, write=True),
        lambda l1: l1.fill(0, MESIState.EXCLUSIVE),
    ], ids=["access", "touch", "insert", "probe_hit", "fill"])
    def test_use_makes_line_most_recent(self, use):
        l1 = self._full_set()
        use(l1)
        assert [entry.line_addr for entry in l1] == [1, 2, 0]
        assert l1.victim_for(3).line_addr == 1
        _entry, victim = l1.fill(3, MESIState.SHARED)
        assert victim.line_addr == 1

    def test_lookup_and_downgrade_keep_recency(self):
        l1 = self._full_set()
        l1.lookup(0)
        l1.downgrade(0)
        assert l1.victim_for(3).line_addr == 0
