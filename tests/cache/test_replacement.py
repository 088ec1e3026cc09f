"""Replacement policies: LRU and the paper's modified-LRU (Section 2.2.4)."""

import random

import pytest

from repro.cache.entries import CacheLine, HomeEntry, ReplicaEntry
from repro.cache.replacement import LRUPolicy, ModifiedLRUPolicy, make_policy
from repro.coherence.sharers import FullMapSharers
from repro.common.types import MESIState


def _line(addr, last_use):
    entry = CacheLine(addr, MESIState.SHARED)
    entry.last_use = last_use
    return entry


def _home(addr, last_use, sharers):
    entry = HomeEntry(addr, FullMapSharers())
    entry.last_use = last_use
    for core in sharers:
        entry.sharers.add(core)
    return entry


def _replica(addr, last_use, l1_copy):
    entry = ReplicaEntry(addr, MESIState.SHARED, reuse_max=3)
    entry.last_use = last_use
    entry.l1_copy = l1_copy
    return entry


class TestLRU:
    def test_picks_least_recent(self):
        victim = LRUPolicy().select_victim([_line(1, 5), _line(2, 3), _line(3, 9)])
        assert victim.line_addr == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            LRUPolicy().select_victim([])


class TestModifiedLRU:
    def test_prefers_fewest_l1_copies(self):
        """A recently used line with no sharers loses to an old line with
        sharers — the paper's key departure from LRU."""
        popular_but_old = _home(1, last_use=1, sharers=[0, 1, 2])
        unpopular_but_recent = _home(2, last_use=100, sharers=[])
        victim = ModifiedLRUPolicy().select_victim(
            [popular_but_old, unpopular_but_recent]
        )
        assert victim.line_addr == 2

    def test_ties_broken_by_lru(self):
        first = _home(1, last_use=5, sharers=[0])
        second = _home(2, last_use=3, sharers=[1])
        victim = ModifiedLRUPolicy().select_victim([first, second])
        assert victim.line_addr == 2

    def test_replica_l1_copy_counts(self):
        backed = _replica(1, last_use=1, l1_copy=True)
        unbacked = _replica(2, last_use=100, l1_copy=False)
        victim = ModifiedLRUPolicy().select_victim([backed, unbacked])
        assert victim.line_addr == 2

    def test_mixed_homes_and_replicas(self):
        home = _home(1, last_use=50, sharers=[0, 1])
        replica = _replica(2, last_use=10, l1_copy=False)
        victim = ModifiedLRUPolicy().select_victim([home, replica])
        assert victim.line_addr == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            ModifiedLRUPolicy().select_victim([])


class TestKeyFunctions:
    """The ``attrgetter`` keys pick exactly what the lambda keys did."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_victim_as_lambda_keys(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            candidates = {}
            for addr in range(rng.randint(1, 8)):
                # Few distinct stamps and copy counts, so both keys tie.
                last_use = rng.randrange(6)
                if rng.random() < 0.5:
                    sharers = rng.sample(range(4), rng.randrange(3))
                    entry = _home(addr, last_use, sharers)
                else:
                    entry = _replica(addr, last_use, rng.random() < 0.5)
                candidates[addr] = entry
            view = candidates.values()
            assert LRUPolicy().select_victim(view) is min(
                view, key=lambda entry: entry.last_use
            )
            assert ModifiedLRUPolicy().select_victim(view) is min(
                view, key=lambda entry: (entry.l1_copies, entry.last_use)
            )


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("modified_lru"), ModifiedLRUPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("plru")
