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
from repro.cache.replacement import OldestFirstPolicy
from repro.common.params import CacheGeometry
from repro.common.types import MESIState

EXCLUSIVE = MESIState.EXCLUSIVE


class L1Cache(SetAssociativeCache):
    """One private L1 cache (instruction or data).

    Recency is each set's dict order: every use, inherited methods included,
    moves the entry to the end, so the victim is the set's first key."""

    def __init__(self, geometry: CacheGeometry) -> None:
        super().__init__(geometry, OldestFirstPolicy())

    # -- lookups --------------------------------------------------------------
    def probe_hit(self, line_addr: int, write: bool) -> Optional[L1Line]:
        """Return the entry if the access hits with sufficient permission.

        Any resident line is marked most recently used.  A write against
        a SHARED copy is *not* a hit (it needs an upgrade through the home
        directory), matching Section 2.2.2.
        """
        shift = self._shift
        cache_set = self._sets[
            (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask]
        entry = cache_set.pop(line_addr, None)
        if entry is None:
            return None
        cache_set[line_addr] = entry
        if write and entry.state < EXCLUSIVE:
            return None
        return entry

    def touch(self, entry: L1Line) -> None:
        """Mark a resident entry most recently used (move it to the end)."""
        self.insert(entry)

    # -- modification ---------------------------------------------------------
    def fill(self, line_addr: int, state: MESIState) -> tuple[L1Line, Optional[L1Line]]:
        """Insert (or update) a line; returns ``(entry, evicted_victim)``.

        The victim is the set's least recently used line, and the filled
        line becomes the most recently used one.
        """
        shift = self._shift
        cache_set = self._sets[
            (line_addr ^ (line_addr >> shift) if shift else line_addr) & self._mask]
        entry = cache_set.pop(line_addr, None)
        if entry is not None:
            entry.state = state
            cache_set[line_addr] = entry
            return entry, None
        victim = None
        if len(cache_set) >= self._ways:
            victim = cache_set.pop(next(iter(cache_set)))
        entry = cache_set[line_addr] = L1Line(line_addr, state)
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
