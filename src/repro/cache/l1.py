"""Private L1 instruction/data cache model.

An L1 cache is a subclass of the set-associative array with LRU
replacement, holding MESI-stated lines.  It never makes coherence
decisions itself: the protocol layer calls :meth:`L1Cache.fill`,
:meth:`L1Cache.invalidate` and :meth:`L1Cache.downgrade` as directed by
the home directory, and handles the victim returned by ``fill`` (an L1
eviction probes the local LLC slice — Section 2.2.3).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.array import SetAssociativeCache
from repro.cache.entries import L1Line
from repro.cache.replacement import BY_RECENCY, LRUPolicy
from repro.common.params import CacheGeometry
from repro.common.types import MESIState


class L1Cache(SetAssociativeCache):
    """One private L1 cache (instruction or data)."""

    def __init__(self, geometry: CacheGeometry) -> None:
        super().__init__(geometry, LRUPolicy())

    # -- lookups --------------------------------------------------------------
    def probe_hit(self, line_addr: int, write: bool) -> Optional[L1Line]:
        """Return the entry if the access hits with sufficient permission.

        Any resident line is marked most recently used.  A write against
        a SHARED copy is *not* a hit (it needs an upgrade through the home
        directory), matching Section 2.2.2.
        """
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        entry = self._sets[index].get(line_addr)
        if entry is None:
            return None
        self._clock += 1
        entry.last_use = self._clock
        if write and not entry.state.writable:
            return None
        return entry

    # -- modification ---------------------------------------------------------
    def fill(self, line_addr: int, state: MESIState) -> tuple[L1Line, Optional[L1Line]]:
        """Insert (or update) a line; returns ``(entry, evicted_victim)``.

        The victim is the set's least recently used line, and the filled
        line becomes the most recently used one.
        """
        shift = self._shift
        index = (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask
        cache_set = self._sets[index]
        self._clock += 1
        entry = cache_set.get(line_addr)
        if entry is not None:
            entry.state = state
            entry.last_use = self._clock
            return entry, None
        victim = None
        if len(cache_set) >= self._ways:
            victim = min(cache_set.values(), key=BY_RECENCY)
            del cache_set[victim.line_addr]
        entry = L1Line(line_addr, state)
        entry.last_use = self._clock
        cache_set[line_addr] = entry
        return entry, victim

    #: Remove the line; returns the removed entry (dirty flag intact).
    invalidate = SetAssociativeCache.remove

    def downgrade(self, line_addr: int) -> bool:
        """Drop M/E to S for a read by another core; True if data was dirty."""
        entry = self.lookup(line_addr)
        if entry is None:
            return False
        was_dirty = entry.dirty or entry.state == MESIState.MODIFIED
        entry.state = MESIState.SHARED
        entry.dirty = False
        return was_dirty
