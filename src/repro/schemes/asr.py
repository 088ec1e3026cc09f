"""Adaptive Selective Replication baseline (Beckmann et al., MICRO 2006).

ASR replicates cache lines into the requester's local LLC slice on L1
eviction, but **only** lines classified *shared read-only* (a sticky
per-line shared bit), and only with a probability given by the current
*replication level*.  Following the paper's methodology (Section 3.3), we
do not model ASR's hardware monitoring circuits: the experiment runner
executes ASR at the five discrete levels {0, 0.25, 0.5, 0.75, 1} and
keeps the level with the lowest energy-delay product per benchmark.

Shared read-only classification here uses directory-visible evidence:
a line is eligible once two distinct cores have read it, no write request
has ever reached the home, and no dirty data has ever been written back
(the last condition catches silent E→M upgrades, which the home only
learns about from the eventual write-back — same information a sticky
hardware shared bit would have).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.entries import HomeEntry, L1Line, ReplicaEntry
from repro.energy import model as energy_events
from repro.schemes.base import MODIFIED, SHARED, LocalHit, ProtocolEngine


class ASRScheme(ProtocolEngine):
    """ASR: probabilistic replication of shared read-only lines."""

    name = "ASR"

    #: The discrete replication levels evaluated by the paper.
    LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self, config, observer=None, replication_level: float = 0.5) -> None:
        if not 0.0 <= replication_level <= 1.0:
            raise ValueError("replication level must be in [0, 1]")
        super().__init__(config, observer)
        self.replication_level = replication_level
        #: Lines that have seen a write request at the home (sticky).
        self._written: set[int] = set()
        #: line -> first reader, or -1 once multiple readers were seen.
        self._reader: dict[int, int] = {}
        self._decisions = 0

    # ------------------------------------------------------------------
    # Shared read-only classification
    # ------------------------------------------------------------------
    def should_replicate(
        self, home_entry: HomeEntry, core: int, write: bool, is_ifetch: bool, only_sharer: bool
    ) -> bool:
        """Note the home's shared read-only evidence; ASR never replicates
        at fill time (the base services call this once per home request)."""
        line_addr = home_entry.line_addr
        if write:
            self._written.add(line_addr)
        elif self._reader.setdefault(line_addr, core) != core:
            self._reader[line_addr] = -1  # multiple readers
        return False

    def is_shared_readonly(self, line_addr: int) -> bool:
        """Sticky shared-RO classification at the home directory."""
        if line_addr in self._written:
            return False
        return self._reader.get(line_addr) == -1

    # ------------------------------------------------------------------
    # Local lookup: replicas stay resident on hits (inclusive, unlike VR)
    # ------------------------------------------------------------------
    def local_lookup(
        self, core: int, line_addr: int, write: bool, is_ifetch: bool, now: float
    ) -> tuple[Optional[LocalHit], float]:
        llc = self.slices[core]
        energy_counts = self._energy_counts
        energy_counts[energy_events.LLC_TAG_READ] += 1
        replica = llc.replica(line_addr)
        if replica is None or write:
            # ASR replicas are S-state (read-only data); writes go home.
            return None, self._llc_tag_latency
        if replica.reuse < replica.reuse_max:
            replica.reuse += 1
        replica.l1_copy = True
        llc.touch(replica)
        energy_counts[energy_events.LLC_DATA_READ] += 1
        return (self._llc_data_latency, SHARED, False), self._llc_tag_latency

    # ------------------------------------------------------------------
    # L1 evictions: probabilistic shared-RO replication
    # ------------------------------------------------------------------
    def handle_l1_eviction(self, core: int, victim: L1Line, is_ifetch: bool, now: float) -> None:
        line_addr = victim.line_addr
        home = self._home_of_cached_line(core, line_addr, is_ifetch)
        dirty = victim.dirty or victim.state == MODIFIED
        if (
            home != core
            and not dirty
            and self.is_shared_readonly(line_addr)
            and self._replicate_now(line_addr, core)
            and self.slices[core].lookup(line_addr) is None  # no replica, no home
        ):
            self._make_room(core, line_addr, now)
            self.slices[core].insert(ReplicaEntry(line_addr, SHARED, self.reuse_max))
            energy_counts = self._energy_counts
            energy_counts[energy_events.LLC_TAG_WRITE] += 1
            energy_counts[energy_events.LLC_DATA_WRITE] += 1
            self._counters["asr_placements"] += 1
            return  # the core keeps a copy: it remains a sharer at the home
        super().handle_l1_eviction(core, victim, is_ifetch, now)

    def _replicate_now(self, line_addr: int, core: int) -> bool:
        """Deterministic pseudo-random draw against the replication level."""
        if self.replication_level <= 0.0:
            return False
        if self.replication_level >= 1.0:
            return True
        self._decisions += 1
        draw = (hash((line_addr, core, self._decisions)) & 0xFFFF) / 0x10000
        return draw < self.replication_level

    # ------------------------------------------------------------------
    # Invalidations probe the local slice
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
            llc.remove(line_addr)
        return had_copy, dirty, None
