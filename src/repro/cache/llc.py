"""One LLC slice: home lines with in-cache directory, plus local replicas.

A slice is a subclass of the set-associative array that may hold, for
any given line address, *either* the home copy
(:class:`~repro.cache.entries.HomeEntry`, when this core is the line's
home) *or* a replica (:class:`~repro.cache.entries.ReplicaEntry`) — never
both, because the protocol serves requests whose home is local directly
from the home copy (Section 2.2.1).

The slice adds typed lookups so protocol code reads naturally
(``slice.replica(line)`` / ``slice.home(line)``) and enforces the
either/or invariant on insertion.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.array import SetAssociativeCache
from repro.cache.entries import CacheLine, HomeEntry, ReplicaEntry
from repro.cache.replacement import ReplacementPolicy
from repro.common.params import CacheGeometry


class LLCSlice(SetAssociativeCache):
    """The per-core slice of the distributed shared LLC."""

    def __init__(self, core_id: int, geometry: CacheGeometry, policy: ReplacementPolicy) -> None:
        super().__init__(geometry, policy)
        self.core_id = core_id

    # -- typed lookups ---------------------------------------------------------
    def home(self, line_addr: int) -> Optional[HomeEntry]:
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        entry = self._sets[index].get(line_addr)
        return entry if isinstance(entry, HomeEntry) else None

    def replica(self, line_addr: int) -> Optional[ReplicaEntry]:
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        entry = self._sets[index].get(line_addr)
        return entry if isinstance(entry, ReplicaEntry) else None

    # -- modification -----------------------------------------------------------
    def insert(self, entry: CacheLine) -> None:
        """Insert a home or replica entry; the set must have room.

        Raises if the slice already holds an entry of the *other* kind for
        the same line (the protocol must never create that state).  The
        array's ``insert`` is inlined: every off-chip fill comes here.
        """
        line_addr = entry.line_addr
        shift = self._shift
        cache_set = self._sets[
            (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask]
        existing = cache_set.get(line_addr)
        if existing is None and len(cache_set) >= self._ways:
            raise RuntimeError(f"inserting line {line_addr:#x} into a full set; "
                               "evict the victim_for() entry first")
        if existing is not None and type(existing) is not type(entry):
            raise RuntimeError(
                f"slice {self.core_id} holds a {type(existing).__name__} for line "
                f"{line_addr:#x}; cannot insert {type(entry).__name__}")
        self._clock += 1
        entry.last_use = self._clock
        cache_set[line_addr] = entry

    # -- inspection --------------------------------------------------------------
    def replica_count(self) -> int:
        return sum(1 for entry in self if isinstance(entry, ReplicaEntry))

    def home_count(self) -> int:
        return sum(1 for entry in self if isinstance(entry, HomeEntry))
