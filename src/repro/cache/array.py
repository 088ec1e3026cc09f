"""Generic set-associative cache array.

This is the storage substrate under both the private L1 caches and the
LLC slices.  It stores :class:`~repro.cache.entries.CacheLine` objects,
maintains per-set occupancy and LRU timestamps, and delegates victim
selection to a pluggable :class:`~repro.cache.replacement.ReplacementPolicy`.

The array never evicts on its own: :meth:`victim_for` exposes the entry
that *would* be evicted so the protocol layer can run the appropriate
coherence actions (write-backs, back-invalidations, classifier updates)
before calling :meth:`remove` and :meth:`insert`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cache.entries import CacheLine
from repro.cache.replacement import ReplacementPolicy
from repro.common.params import CacheGeometry


class SetAssociativeCache:
    """A set-associative array of cache-line entries."""

    def __init__(self, geometry: CacheGeometry, policy: ReplacementPolicy) -> None:
        self._geometry = geometry
        self._policy = policy
        #: One dict per set, keyed by line address. Python dicts preserve
        #: insertion order but LRU ordering uses explicit timestamps.
        self._sets: list[dict[int, CacheLine]] = [{} for _ in range(geometry.sets)]
        self._clock = 0
        #: ``geometry.set_index`` is the specification; the hot methods
        #: inline it from these cached fields instead of calling it.
        self._mask = geometry.sets - 1
        self._shift = geometry.index_shift
        self._ways = geometry.ways

    @property
    def geometry(self) -> CacheGeometry:
        return self._geometry

    # -- lookups --------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Return the entry for ``line_addr`` without touching LRU state."""
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        return self._sets[index].get(line_addr)

    def access(self, line_addr: int) -> Optional[CacheLine]:
        """Return the entry and mark it most recently used."""
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        entry = self._sets[index].get(line_addr)
        if entry is not None:
            self._clock += 1
            entry.last_use = self._clock
        return entry

    def touch(self, entry: CacheLine) -> None:
        """Mark an already-resident entry most recently used."""
        self._clock += 1
        entry.last_use = self._clock

    # -- modification ---------------------------------------------------------
    def victim_for(self, line_addr: int) -> Optional[CacheLine]:
        """The entry that must be evicted before inserting ``line_addr``.

        Returns ``None`` when the set has a free way (or already holds the
        line, in which case insertion is a replacement of itself).
        """
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        cache_set = self._sets[index]
        if line_addr in cache_set or len(cache_set) < self._ways:
            return None
        return self._policy.select_victim(cache_set.values())

    def insert(self, entry: CacheLine) -> None:
        """Insert an entry; the caller must have made room first."""
        line_addr = entry.line_addr
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        cache_set = self._sets[index]
        if line_addr not in cache_set and len(cache_set) >= self._ways:
            raise RuntimeError(
                f"inserting line {entry.line_addr:#x} into a full set; "
                "evict the victim_for() entry first"
            )
        self._clock += 1
        entry.last_use = self._clock
        cache_set[line_addr] = entry

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        """Remove and return the entry for ``line_addr`` (or ``None``)."""
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        return self._sets[index].pop(line_addr, None)

    def set_entries(self, line_addr: int) -> list[CacheLine]:
        """The entries of ``line_addr``'s set, in insertion order."""
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        return list(self._sets[index].values())

    # -- inspection -----------------------------------------------------------
    def __iter__(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets[set_index])

    def utilization(self) -> float:
        """Fraction of ways currently occupied across the whole array."""
        return len(self) / self._geometry.lines
