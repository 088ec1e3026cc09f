"""One LLC slice: home lines with in-cache directory, plus local replicas.

A slice may hold, for any given line address, *either* the home copy
(:class:`~repro.cache.entries.HomeEntry`, when this core is the line's
home) *or* a replica (:class:`~repro.cache.entries.ReplicaEntry`) — never
both, because the protocol serves requests whose home is local directly
from the home copy (Section 2.2.1).

The slice exposes typed lookups so protocol code reads naturally
(``slice.replica(line)`` / ``slice.home(line)``) and enforces the
either/or invariant on insertion.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cache.array import SetAssociativeCache
from repro.cache.entries import CacheLine, HomeEntry, ReplicaEntry
from repro.cache.replacement import ReplacementPolicy
from repro.common.params import CacheGeometry


class LLCSlice:
    """The per-core slice of the distributed shared LLC."""

    def __init__(self, core_id: int, geometry: CacheGeometry, policy: ReplacementPolicy) -> None:
        self.core_id = core_id
        self._array = SetAssociativeCache(geometry, policy)

    # -- typed lookups ---------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        return self._array.lookup(line_addr)

    def home(self, line_addr: int) -> Optional[HomeEntry]:
        entry = self._array.lookup(line_addr)
        return entry if isinstance(entry, HomeEntry) else None

    def replica(self, line_addr: int) -> Optional[ReplicaEntry]:
        entry = self._array.lookup(line_addr)
        return entry if isinstance(entry, ReplicaEntry) else None

    def touch(self, entry: CacheLine) -> None:
        self._array.touch(entry)

    # -- modification -----------------------------------------------------------
    def victim_for(self, line_addr: int) -> Optional[CacheLine]:
        """Entry that must be evicted to make room for ``line_addr``."""
        return self._array.victim_for(line_addr)

    def insert(self, entry: CacheLine) -> None:
        """Insert a home or replica entry; the set must have room.

        Raises if the slice already holds an entry of the *other* kind for
        the same line (the protocol must never create that state).
        """
        existing = self._array.lookup(entry.line_addr)
        if existing is not None and type(existing) is not type(entry):
            raise RuntimeError(
                f"slice {self.core_id} holds a {type(existing).__name__} for line "
                f"{entry.line_addr:#x}; cannot insert {type(entry).__name__}"
            )
        self._array.insert(entry)

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        return self._array.remove(line_addr)

    # -- inspection --------------------------------------------------------------
    def __iter__(self) -> Iterator[CacheLine]:
        return iter(self._array)

    def set_entries(self, line_addr: int) -> list[CacheLine]:
        """The entries of ``line_addr``'s set, in insertion order."""
        return self._array.set_entries(line_addr)

    def __len__(self) -> int:
        return len(self._array)

    def replica_count(self) -> int:
        return sum(1 for entry in self._array if isinstance(entry, ReplicaEntry))

    def home_count(self) -> int:
        return sum(1 for entry in self._array if isinstance(entry, HomeEntry))

    def utilization(self) -> float:
        return self._array.utilization()

    @property
    def geometry(self) -> CacheGeometry:
        return self._array.geometry
