"""Victim Replication baseline (Zhang & Asanović, ISCA 2005; Section 3.3).

VR uses the requester's local LLC slice as a **victim cache** for lines
evicted from the L1:

* an L1 victim whose home is remote is placed in the local slice *only if*
  a cheap replacement candidate exists — an invalid way, an existing
  replica, or a home line with no L1 sharers — so "global" (home) lines
  with active sharers are never displaced;
* the L1/local-slice relationship is **exclusive**: a replica hit removes
  the replica and moves the line (including dirty data) into the L1, so
  every useful replica hit later costs an LLC data *write* when the line
  returns — the 1.2× write-energy penalty Section 4.1 highlights;
* replicas are created blindly (no reuse tracking, no LLC-pressure
  awareness), which is exactly the weakness the locality-aware protocol
  addresses.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.entries import HomeEntry, L1Line, ReplicaEntry
from repro.cache.replacement import BY_RECENCY
from repro.common.types import MESIState
from repro.energy import model as energy_events
from repro.schemes.base import EXCLUSIVE, MODIFIED, LocalHit, ProtocolEngine


class VictimReplicationScheme(ProtocolEngine):
    """VR: local LLC slice as an L1 victim cache over an S-NUCA LLC."""

    name = "VR"

    # ------------------------------------------------------------------
    # Lookup: replica hits move the line to the L1 (exclusive relation)
    # ------------------------------------------------------------------
    def local_lookup(
        self, core: int, line_addr: int, write: bool, is_ifetch: bool, now: float
    ) -> tuple[Optional[LocalHit], float]:
        llc = self.slices[core]
        energy_counts = self._energy_counts
        energy_counts[energy_events.LLC_TAG_READ] += 1
        replica = llc.replica(line_addr)
        if replica is None:
            return None, self._llc_tag_latency
        state = replica.state
        if write and state < EXCLUSIVE:
            # S-state replica cannot satisfy a write; the home's
            # invalidation sweep will collect it.
            return None, self._llc_tag_latency
        energy_counts[energy_events.LLC_DATA_READ] += 1
        llc.remove(line_addr)
        dirty = replica.dirty or state == MODIFIED
        return (self._llc_data_latency, MODIFIED if write else state, dirty), self._llc_tag_latency

    # ------------------------------------------------------------------
    # L1 evictions: place victims into the local slice when cheap
    # ------------------------------------------------------------------
    def handle_l1_eviction(self, core: int, victim: L1Line, is_ifetch: bool, now: float) -> None:
        line_addr = victim.line_addr
        if self._home_of_cached_line(core, line_addr, is_ifetch) != core:
            if self._make_victim_room(core, line_addr, now):
                replica = ReplicaEntry(line_addr, victim.state, self.reuse_max)
                replica.dirty = victim.dirty
                self.slices[core].insert(replica)
                # VR always writes the victim's data into the slice, clean or not.
                energy_counts = self._energy_counts
                energy_counts[energy_events.LLC_TAG_WRITE] += 1
                energy_counts[energy_events.LLC_DATA_WRITE] += 1
                self._counters["vr_placements"] += 1
                return
            self._counters["vr_placement_rejected"] += 1
        super().handle_l1_eviction(core, victim, is_ifetch, now)

    def _make_victim_room(self, core: int, line_addr: int, now: float) -> bool:
        """Find a VR-eligible way for the victim; True when room was made.

        Eligible candidates (in priority order): a free/invalid way, an
        existing replica, a home line with no L1 sharers.
        """
        llc = self.slices[core]
        existing = llc.lookup(line_addr)
        if isinstance(existing, ReplicaEntry):
            llc.remove(line_addr)  # stale replica of the same line
            return True
        if isinstance(existing, HomeEntry):
            return False  # cannot shadow our own home line
        if llc.victim_for(line_addr) is None:
            return True  # a free way exists
        candidates = llc.set_entries(line_addr)
        replicas = [entry for entry in candidates if isinstance(entry, ReplicaEntry)]
        if replicas:
            chosen = min(replicas, key=BY_RECENCY)
            self.evict_slice_entry(core, chosen, now)
            return True
        sharerless = [
            entry
            for entry in candidates
            if isinstance(entry, HomeEntry) and entry.sharers.count == 0
        ]
        if sharerless:
            chosen = min(sharerless, key=BY_RECENCY)
            self.evict_slice_entry(core, chosen, now)
            return True
        return False

    # ------------------------------------------------------------------
    # Invalidations must also probe the local slice
    # ------------------------------------------------------------------
    def invalidate_local_copies(
        self, target: int, line_addr: int, now: float
    ) -> tuple[bool, bool, Optional[int]]:
        had_copy, dirty, _ = super().invalidate_local_copies(target, line_addr, now)
        llc = self.slices[target]
        self.stats.energy_event(energy_events.LLC_TAG_READ)
        replica = llc.replica(line_addr)
        if replica is not None:
            had_copy = True
            dirty = dirty or replica.dirty or replica.state == MESIState.MODIFIED
            llc.remove(line_addr)
        return had_copy, dirty, None
