"""LLC/L1 replacement policies.

The paper replaces the traditional LRU policy at the LLC with a scheme
that "first selects cache lines with the least number of L1 cache copies
and then chooses the least recently used among them" (Section 2.2.4).
The number of L1 copies is free to obtain because the directory is
integrated in the LLC tags.  Section 4.2 shows this beats LRU on
BLACKSCHOLES and FACESIM and ties elsewhere; ``benchmarks/test_replacement_ablation.py``
reproduces that comparison.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Collection, Protocol

from repro.cache.entries import CacheLine

#: Sort keys shared by the policies and the VR victim search.
BY_RECENCY = attrgetter("last_use")
BY_COPIES_THEN_RECENCY = attrgetter("l1_copies", "last_use")


class ReplacementPolicy(Protocol):
    """Chooses a victim among the valid entries of a full set."""

    def select_victim(self, candidates: Collection[CacheLine]) -> CacheLine:
        """Return the entry to evict. ``candidates`` is non-empty."""
        ...


class LRUPolicy:
    """Classic least-recently-used replacement."""

    def select_victim(self, candidates: Collection[CacheLine]) -> CacheLine:
        if not candidates:
            raise ValueError("no replacement candidates")
        return min(candidates, key=BY_RECENCY)


class ModifiedLRUPolicy:
    """The paper's LLC policy: fewest L1 copies first, then LRU.

    Prioritizing lines without L1 sharers keeps back-invalidations (which
    the inclusive hierarchy would otherwise trigger) negligible.
    """

    def select_victim(self, candidates: Collection[CacheLine]) -> CacheLine:
        if not candidates:
            raise ValueError("no replacement candidates")
        return min(candidates, key=BY_COPIES_THEN_RECENCY)


def make_policy(name: str) -> ReplacementPolicy:
    """Factory used by configuration code and the ablation benchmark."""
    policies = {
        "lru": LRUPolicy,
        "modified_lru": ModifiedLRUPolicy,
    }
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {sorted(policies)}"
        ) from None
