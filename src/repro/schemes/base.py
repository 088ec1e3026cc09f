"""The shared LLC-management protocol engine.

All five evaluated schemes (S-NUCA, R-NUCA, Victim Replication, ASR and
the locality-aware protocol) share the same machine skeleton — private L1
caches kept coherent by an ACKwise directory integrated in the LLC tags,
a 2-D mesh, DRAM controllers — and differ only in four decisions
(Section 2.2): which lines to replicate, where replicas live, how lookups
find them, and how replicas stay coherent.

:class:`ProtocolEngine` implements the common MESI directory protocol and
exposes exactly those four decisions as overridable hooks:

* :meth:`local_lookup` — L1-miss-time probe for a nearby replica;
* :meth:`should_replicate` / :meth:`create_replica` — fill-time policy;
* :meth:`handle_l1_eviction` — what happens to L1 victims;
* :meth:`invalidate_local_copies` — what an invalidation must probe.

Timing follows Section 3.4: every L1-miss latency is decomposed into the
L1→LLC-replica, L1→LLC-home, LLC-home-waiting (per-line serialization),
LLC-home→sharers and LLC-home→off-chip components.  Coherence actions
that are off the critical path (evictions, write-backs) still send real
messages through the mesh — they contend for links and consume energy —
but do not stall the requester.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.cache.entries import HomeEntry, L1Line, ReplicaEntry
from repro.cache.l1 import L1Cache
from repro.cache.llc import LLCSlice
from repro.cache.replacement import make_policy
from repro.coherence.sharers import make_sharer_tracker
from repro.common.params import MachineConfig
from repro.common.types import AccessType, MESIState, MissStatus
from repro.dram.controller import DramSystem
from repro.energy import model as energy_events
from repro.energy.model import EnergyModel
from repro.network.mesh import Mesh
from repro.placement.base import Placement, StaticNuca
from repro.sim import stats as stat_names
from repro.sim.stats import SimStats

# Enum members as module names for the miss path: on Python 3.11 a
# ``MESIState.X`` read goes through ``EnumType.__getattr__``'s slot wrapper.
SHARED = MESIState.SHARED
EXCLUSIVE = MESIState.EXCLUSIVE
MODIFIED = MESIState.MODIFIED
LLC_REPLICA_HIT = MissStatus.LLC_REPLICA_HIT
LLC_HOME_HIT = MissStatus.LLC_HOME_HIT
OFF_CHIP_MISS = MissStatus.OFF_CHIP_MISS


@dataclasses.dataclass(slots=True)
class AccessResult:
    """Outcome of one memory access."""

    latency: float
    status: MissStatus
    #: MESI state granted to the L1 copy.
    state: MESIState = MESIState.SHARED
    #: Whether the granted data is dirty (VR moves dirty replicas to L1).
    dirty: bool = False


@dataclasses.dataclass(slots=True)
class LocalHit:
    """Outcome of a successful local (replica) lookup."""

    latency: float
    state: MESIState
    dirty: bool = False


class ProtocolObserver:
    """Optional hook consumer (used by the Figure 1 run-length profiler)."""

    def on_llc_home_access(self, core: int, line_addr: int, is_write: bool) -> None:
        """An L1 miss was serviced at (or filled through) the home LLC."""

    def on_home_eviction(self, line_addr: int) -> None:
        """A home LLC entry was evicted (all reuse runs terminate)."""

    def on_replica_access(self, core: int, line_addr: int, is_write: bool) -> None:
        """An L1 miss was serviced by a local LLC replica."""


class ProtocolEngine:
    """Base machine + directory protocol; schemes subclass and override hooks."""

    #: Human-readable scheme name (used by experiment tables).
    name = "base"

    def __init__(self, config: MachineConfig, observer: ProtocolObserver | None = None) -> None:
        self.config = config
        self.observer = observer
        self.l1i = [L1Cache(config.l1i) for _ in range(config.num_cores)]
        self.l1d = [L1Cache(config.l1d) for _ in range(config.num_cores)]
        # Index LLC sets with the bits above the slice-interleaving bits so
        # a slice's home lines spread over all of its sets (see
        # CacheGeometry.index_shift).
        slice_geometry = config.llc_slice.with_index_shift(
            max(config.llc_slice.index_shift, (config.num_cores - 1).bit_length())
        )
        if config.tla_hints:
            llc_policy_name = "lru"  # TLA pairs hints with plain LRU
        else:
            llc_policy_name = "modified_lru" if config.llc_modified_lru else "lru"
        self.slices = [
            LLCSlice(core, slice_geometry, make_policy(llc_policy_name))
            for core in range(config.num_cores)
        ]
        self._tla_hit_counts = [0] * config.num_cores
        self.mesh = Mesh(config)
        self.dram = DramSystem(config)
        self.placement = self.make_placement()
        self.stats = SimStats(config.num_cores)
        # The miss path writes these directly; ``stats`` is never reassigned.
        self._counters = self.stats.counters
        self._energy_counts = self.stats.energy_counts
        self._latency = self.stats.latency
        #: Per-(home, line) serialization: requests to the same line queue.
        self._line_busy: dict[tuple[int, int], float] = {}
        #: Current home slice per data line (R-NUCA rehoming support).
        self._active_home: dict[int, int] = {}
        self._control_flits = self.mesh.control_flits()
        self._data_flits = self.mesh.data_flits()

    # ------------------------------------------------------------------
    # Scheme hooks
    # ------------------------------------------------------------------
    def make_placement(self) -> Placement:
        """Home-mapping policy; S-NUCA interleaving by default."""
        return StaticNuca(self.config.num_cores)

    def energy_model(self) -> EnergyModel:
        """Energy model for this scheme (classifier schemes scale directory)."""
        return EnergyModel()

    def local_lookup(
        self, core: int, line_addr: int, write: bool, is_ifetch: bool, now: float
    ) -> tuple[Optional[LocalHit], float]:
        """Probe for a local replica before going to the home.

        Returns ``(hit, probe_cost)``; ``hit`` is None on a miss and
        ``probe_cost`` is the critical-path cycles spent probing (charged
        to the L1→LLC-replica bucket either way).  The base machine has
        no replicas and skips the probe entirely.
        """
        return None, 0.0

    def should_replicate(
        self, home_entry: HomeEntry, core: int, write: bool, is_ifetch: bool, only_sharer: bool
    ) -> bool:
        """Fill-time replication decision (classifier hook)."""
        return False

    def create_replica(
        self, core: int, line_addr: int, state: MESIState, write: bool, is_ifetch: bool, now: float
    ) -> None:
        """Materialize a replica after a home fill (no-op by default)."""

    def replica_slice_for(self, core: int, line_addr: int) -> int:
        """Slice where ``core`` would keep/find a replica of ``line_addr``."""
        return core

    def replica_would_help(self, home: int, core: int, line_addr: int) -> bool:
        """Whether a replica would be closer than the home (placement test)."""
        return home != self.replica_slice_for(core, line_addr)

    def _replica_children(self, replica_slice: int) -> list[int]:
        """Cores whose L1s live beneath a replica at ``replica_slice``.

        One core for per-core replicas; the whole cluster under
        cluster-level replication (hierarchical invalidation targets).
        """
        return [replica_slice]

    def invalidate_local_copies(
        self, target: int, line_addr: int, now: float
    ) -> tuple[bool, bool, Optional[int]]:
        """Invalidate every copy in ``target``'s local hierarchy.

        Returns ``(had_copy, dirty, replica_reuse)`` where ``replica_reuse``
        is the replica's reuse-counter value if an LLC replica was
        invalidated (communicated back in the acknowledgement —
        Section 2.2.3), else None.
        """
        had_copy = False
        dirty = False
        for l1 in (self.l1d[target], self.l1i[target]):
            entry = l1.invalidate(line_addr)
            self.stats.energy_event(energy_events.L1D_READ)  # probe
            if entry is not None:
                had_copy = True
                dirty = dirty or entry.dirty or entry.state == MESIState.MODIFIED
        return had_copy, dirty, None

    def handle_l1_eviction(self, core: int, victim: L1Line, is_ifetch: bool, now: float) -> None:
        """Dispose of an L1 victim; default sends the home an ack/writeback."""
        self._notify_home_of_l1_eviction(core, victim, is_ifetch, now)

    def evict_slice_entry(self, slice_core: int, entry, now: float) -> None:
        """Evict one LLC slice entry (home or replica) with full protocol."""
        if isinstance(entry, HomeEntry):
            self._evict_home_entry(slice_core, entry, now)
        else:
            self._evict_replica_entry(slice_core, entry, now)

    # ------------------------------------------------------------------
    # Top-level access path
    # ------------------------------------------------------------------
    def access(self, core: int, atype: AccessType, line_addr: int, now: float) -> AccessResult:
        """Process one memory reference from ``core`` at time ``now``."""
        is_ifetch = atype == AccessType.IFETCH
        write = atype == AccessType.WRITE
        l1 = self.l1i[core] if is_ifetch else self.l1d[core]
        self._l1_energy(is_ifetch, read=True)
        entry = l1.probe_hit(line_addr, write)
        if entry is not None:
            if write:
                entry.state = MESIState.MODIFIED
                entry.dirty = True
                self._l1_energy(is_ifetch, read=False)
            self.stats.record_miss(MissStatus.L1_HIT)
            self.stats.add_latency(stat_names.L1_HIT_TIME, self.config.l1_latency)
            self.stats.bump("l1i_hits" if is_ifetch else "l1d_hits")
            if self.config.tla_hints:
                self._maybe_send_tla_hint(core, line_addr, is_ifetch, now)
            return AccessResult(self.config.l1_latency, MissStatus.L1_HIT)

        self.stats.bump("l1i_misses" if is_ifetch else "l1d_misses")
        latency, status, state, dirty = self._handle_l1_miss(
            core, line_addr, write, is_ifetch, now
        )
        # The fill (and any L1 eviction it triggers) is timestamped at the
        # *issue* time, not issue + latency: off-critical-path messages must
        # not reserve mesh links ahead of the global simulation frontier,
        # or critical-path traffic would queue behind reservations for
        # links that are actually idle (a runaway-feedback artifact).
        self._fill_l1(core, line_addr, state, write, is_ifetch, now, dirty=dirty)
        self.stats.record_miss(status)
        total = latency + self.config.l1_latency
        self.stats.add_latency(stat_names.L1_HIT_TIME, self.config.l1_latency)
        return AccessResult(total, status, state)

    def make_fast_access(self):
        """Specialized access entry point for the fast simulation kernel.

        Returns a closure with the semantics of :meth:`access` but with
        every per-call attribute lookup pre-bound and the result reduced
        to the latency scalar the event loop actually consumes (the stats
        side effects are identical — the differential harness in
        :mod:`repro.testing` enforces this).  Returns ``None`` when
        :meth:`access` or :meth:`_l1_energy` (the two methods the closure
        inlines) is overridden — on the subclass or as an instance
        attribute — so the kernel falls back to the generic path instead
        of silently bypassing the override.  The other helpers the
        closure uses (:meth:`_handle_l1_miss`, :meth:`_fill_l1`,
        :meth:`_maybe_send_tla_hint`) are captured as bound methods, so
        their overrides are honored without a guard.
        """
        if (
            "access" in self.__dict__
            or "_l1_energy" in self.__dict__
            or type(self).access is not ProtocolEngine.access
            or type(self)._l1_energy is not ProtocolEngine._l1_energy
        ):
            return None
        config = self.config
        l1_latency = config.l1_latency
        tla_hints = config.tla_hints
        send_tla_hint = self._maybe_send_tla_hint
        l1i = self.l1i
        l1d = self.l1d
        stats = self.stats
        counters = stats.counters
        latency_buckets = stats.latency
        miss_status = stats.miss_status
        energy_counts = stats.energy_counts
        handle_l1_miss = self._handle_l1_miss
        fill_l1 = self._fill_l1
        IFETCH = AccessType.IFETCH
        WRITE = AccessType.WRITE
        MODIFIED = MESIState.MODIFIED
        L1_HIT = MissStatus.L1_HIT
        L1_HIT_TIME = stat_names.L1_HIT_TIME
        L1I_READ = energy_events.L1I_READ
        L1D_READ = energy_events.L1D_READ
        L1I_WRITE = energy_events.L1I_WRITE
        L1D_WRITE = energy_events.L1D_WRITE

        def fast_access(core: int, atype: AccessType, line_addr: int, now: float) -> float:
            is_ifetch = atype is IFETCH
            write = atype is WRITE
            l1 = (l1i if is_ifetch else l1d)[core]
            energy_counts[L1I_READ if is_ifetch else L1D_READ] += 1
            entry = l1.probe_hit(line_addr, write)
            if entry is not None:
                if write:
                    entry.state = MODIFIED
                    entry.dirty = True
                    energy_counts[L1I_WRITE if is_ifetch else L1D_WRITE] += 1
                miss_status[L1_HIT] += 1
                latency_buckets[L1_HIT_TIME] += l1_latency
                counters["l1i_hits" if is_ifetch else "l1d_hits"] += 1
                if tla_hints:
                    send_tla_hint(core, line_addr, is_ifetch, now)
                return l1_latency
            counters["l1i_misses" if is_ifetch else "l1d_misses"] += 1
            latency, status, state, dirty = handle_l1_miss(
                core, line_addr, write, is_ifetch, now
            )
            fill_l1(core, line_addr, state, write, is_ifetch, now, dirty=dirty)
            miss_status[status] += 1
            latency_buckets[L1_HIT_TIME] += l1_latency
            return latency + l1_latency

        return fast_access

    def _make_replica_service(self):
        """Scheme hook behind the batched kernel's local-replica fast path.

        Returns ``None`` (the base machine keeps no replicas, so replica
        hits are never batchable) or a closure ``service(core, line_addr,
        write)`` that tries to service one L1-missing access as a
        *no-coherence* hit in the core's local LLC replica slice:

        * when the access is not serviceable inline — no replica, a write
          against a non-writable replica (directory upgrade), the local
          slice holding the *home* entry, or any other case that must run
          the full miss path — it returns ``None`` **without mutating any
          state**, and the kernel single-steps the record through
          :meth:`access` semantics instead;
        * otherwise it commits the replica-side effects of
          :meth:`local_lookup` for this scheme (reuse-counter increment,
          LRU touch, ``l1_copy``, VR's exclusive-move removal, a write's
          M-state transition) and returns ``(state, dirty)`` — the MESI
          grant and dirty flag the L1 fill receives.

        The base closure in :meth:`make_batched_access` owns everything
        scheme-independent: the L1-victim precheck, the L1 fill and the
        per-run statistics flush.  Implementations must guard their own
        inlined hooks (decline when :meth:`local_lookup` is overridden
        further) and decline configurations whose replica hits are not
        constant-latency (e.g. cluster-level replication, whose probes
        cross the mesh).
        """
        return None

    def _replica_batching_guards(self) -> bool:
        """Scheme-independent guards of the batched replica fast path.

        No observer (``on_replica_access`` fires per hit, in order),
        integer-valued replica-hit latency components (the per-run
        ``n * probe_cost`` flush is only exact for integers), and the
        miss/fill helpers the fast path inlines not overridden.
        """
        if self.observer is not None:
            return False
        if not (
            float(self.config.llc_tag_latency).is_integer()
            and float(self.config.llc_data_latency).is_integer()
        ):
            return False
        return not (
            "_handle_l1_miss" in self.__dict__
            or "_fill_l1" in self.__dict__
            or type(self)._handle_l1_miss is not ProtocolEngine._handle_l1_miss
            or type(self)._fill_l1 is not ProtocolEngine._fill_l1
        )

    def _stock_eviction_hooks(self) -> bool:
        """Whether L1 victims take the base (replica-merge capable) path.

        Only then can the batched closure dispose of an evicted L1
        victim inline — by merging it into its own local replica — which
        is what keeps replica runs going once the L1 is full.
        """
        return not (
            "handle_l1_eviction" in self.__dict__
            or "_notify_home_of_l1_eviction" in self.__dict__
            or type(self).handle_l1_eviction is not ProtocolEngine.handle_l1_eviction
            or type(self)._notify_home_of_l1_eviction
            is not ProtocolEngine._notify_home_of_l1_eviction
        )

    def supports_replica_batching(self) -> bool:
        """Whether batched replica runs *sustain* in the full-L1 steady state.

        The ``auto`` kernel probe's replica-friendliness signal
        (:func:`repro.sim.kernel.choose_kernel`).  Deliberately stricter
        than "the fast path exists": it also requires the stock eviction
        hooks, because once the L1 is full every replica-hit fill evicts
        a victim, and a scheme with overridden eviction hooks (VR's
        victim placement, ASR's probabilistic replication) single-steps
        those records — its replica hits batch only opportunistically
        while L1 sets have room, which does not justify steering
        ``auto`` toward the batched kernel.
        """
        return (
            self._replica_batching_guards()
            and self._stock_eviction_hooks()
            and self._make_replica_service() is not None
        )

    def supports_vector_spans(self) -> bool:
        """Whether the vector kernel's array-at-a-time spans engage.

        The ``auto`` kernel probe's vector signal
        (:func:`repro.sim.kernel.choose_kernel`): True when
        :meth:`make_vector_access` would return a working closure for
        integral-gap traces — i.e. batching is available, so vectorized
        L1-hit spans (which need no further engine support) run on top
        of it.
        """
        return self.make_vector_access() is not None

    def make_batched_access(self, charge_gaps: bool = False):
        """Run-servicing entry point for the batched simulation kernel.

        Returns a closure ``run_hits(core, decoded, index, stop, now,
        limit, strict)`` that executes records ``decoded[index:]`` for as
        long as they are L1 hits — or, for replicating schemes
        (:meth:`_make_replica_service`), constant-latency local-replica
        hits — stopping at the first of:

        * a record that must run the full miss path: an L1 miss with no
          serviceable local replica, a write needing a directory upgrade
          (against a SHARED L1 copy or a non-writable replica), or a
          replica-hit fill whose L1 victim cannot be disposed of locally
          (any event that can mutate replica or directory state beyond
          the run's own slice — the kernel services it through the
          fast-access miss path);
        * ``stop`` — the run boundary the kernel computed (the next
          barrier record or the end of the trace);
        * the scheduling limit — after a record completes at time ``t``,
          the core must yield when ``t > limit`` (or ``t >= limit`` if
          ``strict`` is False, i.e. the heap-front core wins the tie).

        Returns ``(index, now, yielded)``: the first unexecuted record,
        the core's clock, and whether the stop was a scheduling yield.
        The closure owns the whole run's statistics: one flush of the
        hit/energy/latency counters per run, with the Compute bucket
        charged from the decoded trace's numpy ``gap_prefix`` slice
        (``charge_gaps`` switches to per-record charging, which the
        kernel requests when gaps are fractional and the reference
        accumulation order is therefore observable).

        A batched replica hit replays the reference path exactly: the
        scheme service commits the :meth:`local_lookup` effects (reuse
        increment with the same saturation, the same single LRU touch),
        the closure fills the L1 — including merging an evicted L1
        victim into its own local replica when the scheme uses the stock
        eviction path, the common steady state once the L1 is full — and
        the flush adds the per-hit ``L1-To-LLC-Replica`` probe cost,
        ``LLC_REPLICA_HIT`` statuses and tag/data energies.  Its clock
        charge keeps the reference operation grouping
        ``(probe + data) + l1`` per record.

        All side effects are bit-identical to issuing the same records
        through :meth:`access` — enforced by ``repro.testing``.  Returns
        ``None`` (kernel falls back to the fast path) when the
        specialization guards fail: :meth:`access`/:meth:`_l1_energy`
        overrides (same rule as :meth:`make_fast_access`), non-stock L1
        cache objects, TLA hints (hints send per-hit mesh messages, so
        hits are not schedule-free), or a fractional L1 latency (the
        flushed ``n * l1_latency`` sum is only exact for integers).
        """
        if (
            "access" in self.__dict__
            or "_l1_energy" in self.__dict__
            or type(self).access is not ProtocolEngine.access
            or type(self)._l1_energy is not ProtocolEngine._l1_energy
        ):
            return None
        if self.config.tla_hints:
            return None
        if not float(self.config.l1_latency).is_integer():
            return None
        if any(type(cache) is not L1Cache for cache in (*self.l1i, *self.l1d)):
            return None

        l1_latency = self.config.l1_latency
        stats = self.stats
        counters = stats.counters
        latency_buckets = stats.latency
        miss_status = stats.miss_status
        energy_counts = stats.energy_counts
        # type(cache) is L1Cache above makes probe_hit's body the one we
        # inline here: the array's access plus the write-permission check.
        instr_probe = [cache.access for cache in self.l1i]
        data_probe = [cache.access for cache in self.l1d]
        l1i_caches = self.l1i
        l1d_caches = self.l1d
        READ = AccessType.READ
        WRITE = AccessType.WRITE
        MODIFIED = MESIState.MODIFIED
        L1_HIT = MissStatus.L1_HIT
        LLC_REPLICA_HIT = MissStatus.LLC_REPLICA_HIT
        COMPUTE = stat_names.COMPUTE
        L1_HIT_TIME = stat_names.L1_HIT_TIME
        L1_TO_LLC_REPLICA = stat_names.L1_TO_LLC_REPLICA
        L1I_READ = energy_events.L1I_READ
        L1D_READ = energy_events.L1D_READ
        L1I_WRITE = energy_events.L1I_WRITE
        L1D_WRITE = energy_events.L1D_WRITE
        LLC_TAG_READ = energy_events.LLC_TAG_READ
        LLC_DATA_READ = energy_events.LLC_DATA_READ
        LLC_DATA_WRITE = energy_events.LLC_DATA_WRITE

        replica_service = (
            self._make_replica_service() if self._replica_batching_guards() else None
        )
        # Per-record replica-hit latency with the reference operation
        # grouping ((probe + hit.latency) then + l1_latency);
        # probe_cost is the constant local-slice tag probe every scheme's
        # local_lookup charges on a (non-cluster) replica hit.
        probe_cost = float(self.config.llc_tag_latency)
        replica_latency = (probe_cost + float(self.config.llc_data_latency)) + l1_latency
        # An L1 victim evicted by a replica-hit fill can be disposed of
        # inline only through the stock eviction path's replica-merge arm
        # (no mesh traffic); schemes overriding the eviction hooks (VR's
        # victim placement, ASR's probabilistic replication) single-step
        # any record whose fill would evict.
        inline_victims = replica_service is not None and self._stock_eviction_hooks()
        slices = self.slices
        replica_slice_for = self.replica_slice_for

        # Replica-record service outcomes (bit flags accumulated by the
        # flush): 0 = not serviceable inline (single-step the record).
        SERVED = 1
        SERVED_EVICT = 2
        SERVED_EVICT_DIRTY = 3

        def replica_record(core, line_addr, write, l1):
            """Inline one replica hit + L1 fill; returns a SERVED_* code.

            Mirrors access() for a no-coherence replica hit exactly:
            local_lookup's replica-side effects (committed by the scheme
            service), then _fill_l1 — including the stock eviction
            path's local replica-merge of an evicted L1 victim.  All
            prechecks run before any mutation, so a 0 return leaves the
            machine untouched for the single-step fallback.
            """
            victim = l1.victim_for(line_addr)
            if victim is not None:
                if not inline_victims:
                    return 0
                victim_replica = slices[
                    replica_slice_for(core, victim.line_addr)
                ].replica(victim.line_addr)
                if victim_replica is None:
                    # The victim would notify its home (possible mesh
                    # traffic / directory update): not schedule-free.
                    return 0
            grant = replica_service(core, line_addr, write)
            if grant is None:
                return 0
            state, rep_dirty = grant
            # The L1 fill, inlined from L1Cache.fill minus the lookup
            # (the probe just missed) and the victim re-selection (no L1
            # mutation since the precheck — same victim).
            if victim is not None:
                l1.remove(victim.line_addr)
            entry = L1Line(line_addr, state)
            l1.insert(entry)
            if rep_dirty:
                entry.dirty = True
            if write:
                entry.state = MODIFIED
                entry.dirty = True
            if victim is None:
                return SERVED
            # The merge arm of _notify_home_of_l1_eviction: dirty data
            # folds into the victim's replica, the core stays a sharer.
            victim_replica.l1_copy = False
            if victim.dirty or victim.state is MODIFIED:
                victim_replica.dirty = True
                if victim_replica.state.writable:
                    victim_replica.state = MODIFIED
                return SERVED_EVICT_DIRTY
            return SERVED_EVICT

        def run_hits(core, decoded, index, stop, now, limit, strict):
            atypes = decoded.atypes
            lines = decoded.lines
            gaps = decoded.gaps
            probe_data = data_probe[core]
            probe_instr = instr_probe[core]
            l1_data = l1d_caches[core]
            l1_instr = l1i_caches[core]
            start = index
            n_data = 0
            n_instr = 0
            n_write = 0
            r_data = 0
            r_instr = 0
            n_evict = 0
            n_evict_dirty = 0
            yielded = False
            while index < stop:
                atype = atypes[index]
                line_addr = lines[index]
                latency = l1_latency
                if atype is READ:
                    entry = probe_data(line_addr)
                    if entry is not None:
                        n_data += 1
                    else:
                        if replica_service is None:
                            break
                        code = replica_record(core, line_addr, False, l1_data)
                        if not code:
                            break
                        r_data += 1
                        if code > SERVED:
                            n_evict += 1
                            if code == SERVED_EVICT_DIRTY:
                                n_evict_dirty += 1
                        latency = replica_latency
                elif atype is WRITE:
                    entry = probe_data(line_addr)
                    if entry is not None:
                        if not entry.state.writable:
                            break  # upgrade through the home directory
                        entry.state = MODIFIED
                        entry.dirty = True
                        n_data += 1
                        n_write += 1
                    else:
                        if replica_service is None:
                            break
                        code = replica_record(core, line_addr, True, l1_data)
                        if not code:
                            break
                        r_data += 1
                        if code > SERVED:
                            n_evict += 1
                            if code == SERVED_EVICT_DIRTY:
                                n_evict_dirty += 1
                        latency = replica_latency
                else:  # IFETCH (barriers never appear inside a run)
                    entry = probe_instr(line_addr)
                    if entry is not None:
                        n_instr += 1
                    else:
                        if replica_service is None:
                            break
                        code = replica_record(core, line_addr, False, l1_instr)
                        if not code:
                            break
                        r_instr += 1
                        if code > SERVED:
                            n_evict += 1
                            if code == SERVED_EVICT_DIRTY:
                                n_evict_dirty += 1
                        latency = replica_latency
                gap = gaps[index]
                index += 1
                if charge_gaps and gap:
                    latency_buckets[COMPUTE] += gap
                # Same two-step accumulation as the reference loop
                # (issue = now + gap; now = issue + latency): float
                # addition is not associative, so the grouping is part
                # of the bit-identity contract.
                now = now + gap + latency
                if now >= limit and (not strict or now > limit):
                    yielded = True
                    break
            hits = index - start
            if hits:
                if not charge_gaps:
                    gap_prefix = decoded.gap_prefix
                    run_gaps = float(gap_prefix[index] - gap_prefix[start])
                    if run_gaps:
                        latency_buckets[COMPUTE] += run_gaps
                latency_buckets[L1_HIT_TIME] += hits * l1_latency
                replicas = r_data + r_instr
                l1_hits = hits - replicas
                if l1_hits:
                    miss_status[L1_HIT] += l1_hits
                if n_data:
                    counters["l1d_hits"] += n_data
                    energy_counts[L1D_READ] += n_data
                if n_instr:
                    counters["l1i_hits"] += n_instr
                    energy_counts[L1I_READ] += n_instr
                if n_write:
                    energy_counts[L1D_WRITE] += n_write
                if replicas:
                    miss_status[LLC_REPLICA_HIT] += replicas
                    counters["llc_replica_hits"] += replicas
                    latency_buckets[L1_TO_LLC_REPLICA] += replicas * probe_cost
                    energy_counts[LLC_TAG_READ] += replicas
                    energy_counts[LLC_DATA_READ] += replicas
                    if r_data:
                        counters["l1d_misses"] += r_data
                        energy_counts[L1D_READ] += r_data
                        energy_counts[L1D_WRITE] += r_data
                    if r_instr:
                        counters["l1i_misses"] += r_instr
                        energy_counts[L1I_READ] += r_instr
                        energy_counts[L1I_WRITE] += r_instr
                    if n_evict:
                        counters["l1_evictions"] += n_evict
                        if n_evict_dirty:
                            energy_counts[LLC_DATA_WRITE] += n_evict_dirty
            return index, now, yielded

        return run_hits

    # ------------------------------------------------------------------
    # Vector-kernel specialization
    # ------------------------------------------------------------------
    #: Minimum vectorizable L1-hit span (records) worth the numpy planning
    #: overhead.  Purely a performance heuristic: shorter spans are simply
    #: serviced by the batched per-record closure instead, so any value is
    #: bit-identical.
    VECTOR_MIN_SPAN = 24

    def _home_request_stock(self) -> bool:
        """Whether the home-request read path is the base implementation.

        The vector kernel's inline home-hit arm re-implements the no-mesh
        read case of :meth:`_home_request` (home resolution and the
        directory and data actions included) and :meth:`_service_read`;
        any override must disable it.
        """
        cls = type(self)
        return not (
            "_home_request" in self.__dict__
            or "_service_read" in self.__dict__
            or "_home_of_cached_line" in self.__dict__
            or cls._home_request is not ProtocolEngine._home_request
            or cls._service_read is not ProtocolEngine._service_read
            or cls._home_of_cached_line is not ProtocolEngine._home_of_cached_line
        )

    def _home_service_guards(self) -> bool:
        """Whether inline local-home-hit servicing is sound for this scheme.

        The base rule additionally requires the replica-placement hooks to
        be stock, because the inline arm assumes (a) ``local_lookup`` of a
        line whose *home* entry sits in the requester's own slice charges
        nothing, and (b) ``replica_would_help(home == core)`` is False, so
        no replica is ever created at the home.  Schemes for which both
        still hold under their own overrides (the locality scheme) widen
        the check.
        """
        cls = type(self)
        if (
            "local_lookup" in self.__dict__
            or cls.local_lookup is not ProtocolEngine.local_lookup
            or cls.replica_slice_for is not ProtocolEngine.replica_slice_for
            or cls.replica_would_help is not ProtocolEngine.replica_would_help
        ):
            return False
        return self._home_request_stock()

    def _make_home_service(self):
        """Inline servicing of local-home read hits (vector kernel).

        Returns ``None``, or a closure ``home_step(core, line_addr,
        is_ifetch, now) -> float | None`` servicing one L1-missing *read*
        (data or instruction fetch) as an LLC hit at a home entry in the
        requester's own slice.  This is the one miss disposition that is
        schedule-free — no mesh message in either direction, no remote
        owner to downgrade, no replica created (``replica_would_help`` is
        False at the home) — yet breaks batched replica runs (R-NUCA
        homes ~1/num_cores of any shared region in the requester's own
        slice), so servicing it inline is what lets vector/batched runs
        span whole replica-heavy phases.

        Every precheck runs before any mutation: a ``None`` return leaves
        the machine untouched and the caller single-steps the record
        through the generic miss path.  On success the closure commits
        the exact reference side effects — placement observation, home
        resolution, per-line serialization (``line_busy``), directory
        read (sharers/owner/E-grant), classifier hook, LLC LRU touch,
        the L1 fill with a locally-disposable victim — and returns the
        access's total latency (``result.latency + l1_latency``).
        """
        if not (self._replica_batching_guards() and self._stock_eviction_hooks()):
            return None
        if not self._home_service_guards():
            return None
        config = self.config
        l1_latency = config.l1_latency
        tag_latency = config.llc_tag_latency
        data_latency = config.llc_data_latency
        stats = self.stats
        counters = stats.counters
        latency_buckets = stats.latency
        miss_status = stats.miss_status
        energy_counts = stats.energy_counts
        l1i = self.l1i
        l1d = self.l1d
        slices = self.slices
        placement = self.placement
        peek_home = placement.peek_home
        observe_access = placement.observe_access
        active_home = self._active_home
        line_busy = self._line_busy
        replica_slice_for = self.replica_slice_for
        home_of_cached_line = self._home_of_cached_line
        should_replicate = self.should_replicate
        MODIFIED = MESIState.MODIFIED
        EXCLUSIVE = MESIState.EXCLUSIVE
        SHARED = MESIState.SHARED
        LLC_HOME_HIT = MissStatus.LLC_HOME_HIT
        L1_HIT_TIME = stat_names.L1_HIT_TIME
        L1_TO_LLC_HOME = stat_names.L1_TO_LLC_HOME
        LLC_HOME_WAITING = stat_names.LLC_HOME_WAITING
        LLC_HOME_TO_SHARERS = stat_names.LLC_HOME_TO_SHARERS
        LLC_HOME_TO_OFFCHIP = stat_names.LLC_HOME_TO_OFFCHIP
        L1I_READ = energy_events.L1I_READ
        L1D_READ = energy_events.L1D_READ
        L1I_WRITE = energy_events.L1I_WRITE
        L1D_WRITE = energy_events.L1D_WRITE
        LLC_TAG_READ = energy_events.LLC_TAG_READ
        LLC_DATA_READ = energy_events.LLC_DATA_READ
        LLC_DATA_WRITE = energy_events.LLC_DATA_WRITE
        DIR_READ = energy_events.DIR_READ
        DIR_WRITE = energy_events.DIR_WRITE

        homes_depend_on_requester = placement.homes_depend_on_requester

        def home_step(core, line_addr, is_ifetch, now):
            # -- prechecks: all pure; None leaves the machine untouched --
            if is_ifetch and homes_depend_on_requester:
                # Per-cluster instruction homes skip the _active_home
                # bookkeeping; keep that branch on the generic path.
                return None
            array = (l1i if is_ifetch else l1d)[core]
            if array.lookup(line_addr) is not None:
                return None  # L1 hit / write upgrade: not this path
            llc = slices[core]
            entry = llc.home(line_addr)
            if entry is None:
                return None  # remote home or off-chip miss
            if peek_home(line_addr, core, is_ifetch) != core:
                return None  # resolution would land (or migrate) elsewhere
            current = active_home.get(line_addr)
            if current is not None and current != core:
                return None  # resolution would migrate the old home
            owner = entry.owner
            if owner is not None and owner != core:
                return None  # remote owner: the downgrade crosses the mesh
            victim = array.victim_for(line_addr)
            victim_replica = None
            victim_home = None
            if victim is not None:
                victim_replica = slices[
                    replica_slice_for(core, victim.line_addr)
                ].replica(victim.line_addr)
                if victim_replica is None:
                    if home_of_cached_line(core, victim.line_addr, is_ifetch) != core:
                        return None  # victim ack would cross the mesh
                    victim_home = llc.home(victim.line_addr)
            # -- commit: mirrors access() for this disposition exactly --
            energy_counts[L1I_READ if is_ifetch else L1D_READ] += 1
            counters["l1i_misses" if is_ifetch else "l1d_misses"] += 1
            # local_lookup: the local slice holds the home entry, so the
            # probe is the home access itself (zero extra cost/energy).
            observe_access(line_addr, core, is_ifetch)
            active_home[line_addr] = core
            busy_key = (core, line_addr)
            busy_until = line_busy.get(busy_key, 0.0)
            wait = busy_until - now if busy_until > now else 0.0
            latency_buckets[LLC_HOME_WAITING] += wait
            t = now + wait
            energy_counts[LLC_TAG_READ] += 1
            energy_counts[DIR_READ] += 1
            t += tag_latency
            counters["llc_home_hits"] += 1
            llc.touch(entry)
            # _service_read with a local (or absent) owner: no downgrade,
            # no sharer latency.
            sharers = entry.sharers
            only_sharer = sharers.count == (1 if core in sharers else 0)
            sharers.add(core)
            if only_sharer:
                grant = EXCLUSIVE
                entry.owner = core
            else:
                grant = SHARED
            should_replicate(entry, core, False, is_ifetch, only_sharer)
            # replica_would_help(home == core) is False under the guards:
            # no replica is created, whatever the classifier said.
            energy_counts[LLC_DATA_READ] += 1
            energy_counts[DIR_WRITE] += 1
            t += data_latency
            line_busy[busy_key] = t
            total = t - now
            home_component = total - wait - 0.0 - 0.0
            if home_component < 0.0:
                home_component = 0.0
            latency_buckets[L1_TO_LLC_HOME] += home_component
            latency_buckets[LLC_HOME_TO_SHARERS] += 0.0
            latency_buckets[LLC_HOME_TO_OFFCHIP] += 0.0
            # _fill_l1 with the precomputed victim (no mutation happened
            # between the precheck and here, so it is still the victim).
            if victim is not None:
                array.remove(victim.line_addr)
            l1_entry = L1Line(line_addr, grant)
            array.insert(l1_entry)
            energy_counts[L1I_WRITE if is_ifetch else L1D_WRITE] += 1
            replica = llc.replica(line_addr)
            if replica is not None:
                replica.l1_copy = True
            if victim is not None:
                counters["l1_evictions"] += 1
                dirty = victim.dirty or victim.state is MODIFIED
                if victim_replica is not None:
                    # Merge arm of _notify_home_of_l1_eviction.
                    victim_replica.l1_copy = False
                    if dirty:
                        victim_replica.dirty = True
                        if victim_replica.state.writable:
                            victim_replica.state = MODIFIED
                        energy_counts[LLC_DATA_WRITE] += 1
                elif victim_home is not None:
                    # Local-home ack arm (no mesh: victim home == core).
                    victim_home.sharers.remove(core)
                    if victim_home.owner == core:
                        victim_home.owner = None
                        victim_home.state = SHARED
                    if dirty:
                        victim_home.dirty = True
                        energy_counts[LLC_DATA_WRITE] += 1
                    energy_counts[DIR_WRITE] += 1
            miss_status[LLC_HOME_HIT] += 1
            latency_buckets[L1_HIT_TIME] += l1_latency
            return total + l1_latency

        return home_step

    def make_vector_access(self, charge_gaps: bool = False):
        """Array-at-a-time entry point for the vector simulation kernel.

        Returns a closure with the exact ``run_hits`` contract of
        :meth:`make_batched_access` — ``run_vector(core, decoded, index,
        stop, now, limit, strict) -> (index, now, yielded)`` — that
        executes whole *pure-L1-hit spans* as numpy array operations
        instead of a per-record Python loop:

        * a **span oracle** proves records hittable in bulk: during a
          span of L1 hits, L1 membership and line writability are
          invariant (hits never evict; writes only land on writable
          lines, and MODIFIED stays writable), so a sorted snapshot of
          each L1 array plus ``searchsorted`` membership/writability
          tests classifies an arbitrary window of upcoming records at
          once.  The first non-hit (miss, or write needing an upgrade)
          ends the span;
        * **per-record completion times** replay the reference clock
          chain exactly: the reference advances ``now = (now + gap) +
          l1_latency`` per record — two separately rounded float adds —
          and ``np.cumsum`` (sequential accumulation, never pairwise)
          over the interleaved ``(gap, latency)`` increments performs
          the identical sequence of float64 adds.  The resulting clock
          vector matches the reference bit-for-bit even when ``now``
          carries a fractional DRAM-queue component, so truncating the
          span at the scheduling limit with one ``searchsorted`` over
          ``t`` reproduces the reference per-record yield check;
        * **LRU replay** commits the snapshot-validated hits exactly:
          the reference bumps the array clock once per hit and stamps
          the entry, so per array ``_clock += n`` and each touched line
          gets ``last_use = clock_before + (1-based ordinal of its last
          hit)`` — computed with one ``np.unique`` over the reversed
          hit sequence.  Written lines go MODIFIED/dirty (idempotent);
        * the **stats flush** per span is identical to the batched
          flush for the same records (integer counter/energy adds plus
          one ``gap_prefix`` Compute charge).

        Everything that is not a pure L1 hit delegates: short spans and
        replica hits go through the captured :meth:`make_batched_access`
        closure (per-record, replica fast path included), local-home
        read hits through :meth:`_make_home_service`, and anything else
        returns to the kernel for single-stepping.  Returns ``None`` —
        the vector kernel then falls back to the batched kernel — when
        batching itself is unavailable or when ``charge_gaps`` is set
        (fractional gaps make the reference Compute accumulation order
        observable, which array summation cannot reproduce).
        """
        if charge_gaps:
            return None
        run_hits = self.make_batched_access(charge_gaps=False)
        if run_hits is None:
            return None
        home_step = self._make_home_service()
        l1_latency = self.config.l1_latency
        stats = self.stats
        counters = stats.counters
        latency_buckets = stats.latency
        miss_status = stats.miss_status
        energy_counts = stats.energy_counts
        l1i_caches = self.l1i
        l1d_caches = self.l1d
        min_span = self.VECTOR_MIN_SPAN
        min_budget = min_span * l1_latency
        INFINITY = float("inf")
        IFETCH_CODE = int(AccessType.IFETCH)
        WRITE_CODE = int(AccessType.WRITE)
        IFETCH = AccessType.IFETCH
        WRITE = AccessType.WRITE
        MODIFIED = MESIState.MODIFIED
        L1_HIT = MissStatus.L1_HIT
        COMPUTE = stat_names.COMPUTE
        L1_HIT_TIME = stat_names.L1_HIT_TIME
        L1I_READ = energy_events.L1I_READ
        L1D_READ = energy_events.L1D_READ
        L1D_WRITE = energy_events.L1D_WRITE

        def snapshot(array):
            """Sorted (lines, writability) view of one L1 array."""
            sets = array._sets
            addrs = [line_addr for cache_set in sets for line_addr in cache_set]
            writable = [
                entry.state.writable
                for cache_set in sets
                for entry in cache_set.values()
            ]
            lines = np.array(addrs, dtype=np.int64)
            order = np.argsort(lines)
            return lines[order], np.asarray(writable, dtype=bool)[order]

        def membership(sorted_lines, seg_lines):
            """(hit mask, clipped insertion index) for a record window."""
            size = sorted_lines.shape[0]
            if size == 0:
                zeros = np.zeros(seg_lines.shape[0], dtype=np.intp)
                return np.zeros(seg_lines.shape[0], dtype=bool), zeros
            idx = np.searchsorted(sorted_lines, seg_lines)
            np.minimum(idx, size - 1, out=idx)
            return sorted_lines[idx] == seg_lines, idx

        def replay_lru(array, seq):
            """Commit a pure-hit sequence's exact LRU effects on one array.

            The reference bumps ``_clock`` once per hit and stamps the
            entry; only each line's *last* hit is observable, at
            ``clock_before + its 1-based hit ordinal``.
            """
            base = array._clock
            n = seq.shape[0]
            uniq, first_pos = np.unique(seq[::-1], return_index=True)
            last_ordinal = n - first_pos
            sets = array._sets
            set_index = array._geometry.set_index
            for line_addr, ordinal in zip(uniq.tolist(), last_ordinal.tolist()):
                sets[set_index(line_addr)][line_addr].last_use = base + ordinal
            array._clock = base + n

        def run_vector(core, decoded, index, stop, now, limit, strict):
            types_arr = decoded.types_array
            lines_arr = decoded.lines_array
            gaps_arr = decoded.gaps_array
            gap_prefix = decoded.gap_prefix
            atypes = decoded.atypes
            lines = decoded.lines
            gaps = decoded.gaps
            data_array = l1d_caches[core]
            instr_array = l1i_caches[core]
            d_snap = None
            i_snap = None
            while True:
                # ---- vectorized pure-L1-hit span --------------------------
                first_hit = False
                if stop - index >= min_span and limit - now >= min_budget:
                    # Scalar pre-gate: only pay for numpy planning when
                    # both the first record and the record at
                    # ``min_span - 1`` are L1 hits right now.  During a
                    # pure-hit span membership and writability never
                    # improve (hits don't insert lines; a non-writable
                    # line can't become writable without a miss), so a
                    # currently-unhittable record there proves no
                    # committable span exists — skipping two snapshot
                    # builds and a window oracle.
                    for probe in (index, index + min_span - 1):
                        atype0 = atypes[probe]
                        if atype0 is IFETCH:
                            entry0 = instr_array.lookup(lines[probe])
                            first_hit = entry0 is not None
                        else:
                            entry0 = data_array.lookup(lines[probe])
                            first_hit = entry0 is not None and (
                                atype0 is not WRITE or entry0.state.writable
                            )
                        if not first_hit:
                            break
                if first_hit:
                    if d_snap is None:
                        d_snap = snapshot(data_array)
                    if i_snap is None:
                        i_snap = snapshot(instr_array)
                    d_lines, d_writable = d_snap
                    i_lines, i_writable = i_snap
                    # Plan: grow a window until the first non-hit (or stop),
                    # so short spans never pay for a full-run oracle.
                    # The scheduling limit bounds how far a span can
                    # commit — completion times grow by at least
                    # ``l1_latency`` per record — so don't classify
                    # records the limit truncation would discard anyway.
                    plan_stop = stop
                    if limit != INFINITY:
                        budget_cap = index + int((limit - now) / l1_latency) + 2
                        if budget_cap < plan_stop:
                            plan_stop = budget_cap
                    n_hits = 0
                    window = 64
                    pos = index
                    while pos < plan_stop:
                        end = (
                            plan_stop
                            if plan_stop - pos < window
                            else pos + window
                        )
                        seg_lines = lines_arr[pos:end]
                        seg_types = types_arr[pos:end]
                        d_hit, d_idx = membership(d_lines, seg_lines)
                        is_write = seg_types == WRITE_CODE
                        if is_write.any():
                            ok = d_hit & (~is_write | d_writable[d_idx])
                        else:
                            ok = d_hit
                        is_instr = seg_types == IFETCH_CODE
                        if is_instr.any():
                            i_hit, _ = membership(i_lines, seg_lines)
                            ok = np.where(is_instr, i_hit, ok)
                        if not ok.all():
                            n_hits += int(np.argmin(ok))
                            break
                        n_hits += end - pos
                        pos = end
                        window <<= 3
                    if n_hits >= min_span:
                        # Exact per-record completion times: the
                        # reference advances ``now = (now + gap) +
                        # l1_latency``, two separately rounded float
                        # adds per record.  ``np.cumsum`` (sequential
                        # accumulation, never pairwise) over the
                        # interleaved (gap, latency) increments performs
                        # the identical sequence of float64 adds, so the
                        # clocks match the reference bit-for-bit even
                        # when ``now`` carries a fractional DRAM-queue
                        # component or the gaps are themselves
                        # fractional.
                        incr = np.empty(2 * n_hits + 1, dtype=np.float64)
                        incr[0] = now
                        incr[1::2] = gaps_arr[index : index + n_hits]
                        incr[2::2] = l1_latency
                        t = np.cumsum(incr)[2::2]
                        if limit == INFINITY:
                            n = n_hits
                            yielded = False
                        else:
                            # First record whose completion triggers the
                            # reference yield check ends the span.
                            k = int(
                                np.searchsorted(
                                    t, limit, "right" if strict else "left"
                                )
                            )
                            if k < n_hits:
                                n = k + 1
                                yielded = True
                            else:
                                n = n_hits
                                yielded = False
                        span_end = float(t[n - 1])
                        span_lines = lines_arr[index : index + n]
                        span_types = types_arr[index : index + n]
                        span_instr = span_types == IFETCH_CODE
                        span_write = span_types == WRITE_CODE
                        n_instr = int(np.count_nonzero(span_instr))
                        n_data = n - n_instr
                        n_write = int(np.count_nonzero(span_write))
                        if n_instr:
                            d_seq = span_lines[~span_instr]
                            i_seq = span_lines[span_instr]
                        else:
                            d_seq = span_lines
                            i_seq = None
                        if n_data:
                            replay_lru(data_array, d_seq)
                        if n_instr:
                            replay_lru(instr_array, i_seq)
                        if n_write:
                            # Writes only landed on writable lines, and
                            # MODIFIED stays writable: the snapshot's
                            # writability view remains valid.
                            written = np.unique(span_lines[span_write])
                            lookup = data_array.lookup
                            for line_addr in written.tolist():
                                entry = lookup(line_addr)
                                entry.state = MODIFIED
                                entry.dirty = True
                        run_gaps = float(gap_prefix[index + n] - gap_prefix[index])
                        if run_gaps:
                            latency_buckets[COMPUTE] += run_gaps
                        latency_buckets[L1_HIT_TIME] += n * l1_latency
                        miss_status[L1_HIT] += n
                        if n_data:
                            counters["l1d_hits"] += n_data
                            energy_counts[L1D_READ] += n_data
                        if n_instr:
                            counters["l1i_hits"] += n_instr
                            energy_counts[L1I_READ] += n_instr
                        if n_write:
                            energy_counts[L1D_WRITE] += n_write
                        index += n
                        now = span_end
                        if yielded:
                            return index, now, True
                        if index >= stop:
                            return index, now, False
                        # A pure-hit span leaves L1 membership (and the
                        # writability of every snapshotted line) intact:
                        # the snapshots stay valid for the next attempt.
                # ---- per-record delegation: batched closure ---------------
                new_index, now, yielded = run_hits(
                    core, decoded, index, stop, now, limit, strict
                )
                if new_index != index:
                    # Replica fills change L1 membership.
                    d_snap = None
                    i_snap = None
                    index = new_index
                if yielded:
                    return index, now, True
                if index >= stop:
                    return index, now, False
                # ---- inline local-home read hit ---------------------------
                if home_step is None:
                    return index, now, False
                atype = atypes[index]
                if atype is WRITE:
                    return index, now, False
                is_ifetch = atype is IFETCH
                gap = gaps[index]
                issue = now + gap
                latency = home_step(core, lines[index], is_ifetch, issue)
                if latency is None:
                    return index, now, False
                if gap:
                    latency_buckets[COMPUTE] += gap
                now = issue + latency
                index += 1
                if is_ifetch:  # the L1 fill changed membership
                    i_snap = None
                else:
                    d_snap = None
                if now >= limit and (not strict or now > limit):
                    return index, now, True
                if index >= stop:
                    return index, now, False

        return run_vector

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------
    def _handle_l1_miss(
        self, core: int, line_addr: int, write: bool, is_ifetch: bool, now: float
    ) -> tuple[float, MissStatus, MESIState, bool]:
        """Service an L1 miss at a local replica or the home.

        Returns ``(latency, status, granted_state, dirty)``.
        """
        hit, probe_cost = self.local_lookup(core, line_addr, write, is_ifetch, now)
        if probe_cost:
            self._latency[stat_names.L1_TO_LLC_REPLICA] += probe_cost
        if hit is not None:
            self._counters["llc_replica_hits"] += 1
            if self.observer is not None:
                self.observer.on_replica_access(core, line_addr, write)
            return probe_cost + hit.latency, LLC_REPLICA_HIT, hit.state, hit.dirty
        total, status, grant = self._home_request(
            core, line_addr, write, is_ifetch, now + probe_cost
        )
        return total + probe_cost, status, grant, False

    def _home_request(
        self, core: int, line_addr: int, write: bool, is_ifetch: bool, now: float
    ) -> tuple[float, MissStatus, MESIState]:
        """The full request/response transaction with the home directory.

        Returns ``(latency, status, granted_state)``.

        One frame, hot for every kernel, runs the whole transaction: home
        resolution (R-NUCA rehoming included), the request, per-line
        serialization, the directory and data actions at the home (off-chip
        fetch, :meth:`_service_read` / :meth:`_service_write`) and the
        response.
        """
        placement = self.placement
        counters = self._counters
        energy_counts = self._energy_counts
        latency_buckets = self._latency
        mesh_send = self.mesh.send
        config = self.config

        placement.observe_access(line_addr, core, is_ifetch)
        home = placement.home_for(line_addr, core, is_ifetch)
        # Per-cluster instruction copies are independent read-only homes.
        if not (is_ifetch and placement.homes_depend_on_requester):
            active_home = self._active_home
            current = active_home.get(line_addr)
            if current is not None and current != home:
                self._migrate_home(line_addr, current, home, now)
                counters["rehomings"] += 1
            active_home[line_addr] = home

        request_arrive = mesh_send(core, home, self._control_flits, now) \
            if home != core else now

        line_busy = self._line_busy
        busy_key = (home, line_addr)
        busy_until = line_busy.get(busy_key, 0.0)
        wait = busy_until - request_arrive if busy_until > request_arrive else 0.0
        latency_buckets[stat_names.LLC_HOME_WAITING] += wait
        t = request_arrive + wait

        llc = self.slices[home]
        energy_counts[energy_events.LLC_TAG_READ] += 1
        energy_counts[energy_events.DIR_READ] += 1
        t += config.llc_tag_latency
        entry = llc.home(line_addr)
        if entry is None:
            status = OFF_CHIP_MISS
            counters["offchip_misses"] += 1
            entry, offchip_latency = self._fetch_from_dram(home, line_addr, t)
            t += offchip_latency
        else:
            status = LLC_HOME_HIT
            counters["llc_home_hits"] += 1
            llc.touch(entry)
            offchip_latency = 0.0
        if self.observer is not None:
            self.observer.on_llc_home_access(core, line_addr, write)
        if write:
            grant, sharer_latency = self._service_write(home, core, entry, t)
        else:
            grant, sharer_latency = self._service_read(home, core, entry, is_ifetch, t)
        t += sharer_latency
        energy_counts[energy_events.LLC_DATA_READ] += 1
        energy_counts[energy_events.DIR_WRITE] += 1
        t += config.llc_data_latency
        line_busy[busy_key] = t

        response_arrive = mesh_send(home, core, self._data_flits, t) \
            if home != core else t
        total = response_arrive - now

        home_component = total - wait - sharer_latency - offchip_latency
        if home_component < 0.0:
            home_component = 0.0
        latency_buckets[stat_names.L1_TO_LLC_HOME] += home_component
        latency_buckets[stat_names.LLC_HOME_TO_SHARERS] += sharer_latency
        latency_buckets[stat_names.LLC_HOME_TO_OFFCHIP] += offchip_latency
        return total, status, grant

    def _service_read(
        self, home: int, core: int, entry: HomeEntry, is_ifetch: bool, t: float
    ) -> tuple[MESIState, float]:
        """Read at the home: downgrade any remote owner, grant S/E."""
        sharer_latency = 0.0
        owner = entry.owner
        if owner is not None and owner != core:
            sharer_latency = self._downgrade_owner(home, entry, t)
        sharers = entry.sharers
        only_sharer = sharers.count == (1 if core in sharers else 0)
        sharers.add(core)
        if only_sharer:
            grant = EXCLUSIVE
            entry.owner = core
        else:  # at least two sharers now
            grant = SHARED
        replicate = self.should_replicate(entry, core, False, is_ifetch, only_sharer)
        if replicate and self.replica_would_help(home, core, entry.line_addr):
            self.create_replica(core, entry.line_addr, grant, False, is_ifetch, t)
        return grant, sharer_latency

    def _service_write(
        self, home: int, core: int, entry: HomeEntry, t: float
    ) -> tuple[MESIState, float]:
        """Write at the home: invalidate every other copy, grant M."""
        sharers = entry.sharers
        only_sharer = sharers.count == (1 if core in sharers else 0)
        sharer_latency = self._invalidate_for_write(home, core, entry, t)
        replicate = self.should_replicate(entry, core, True, False, only_sharer)
        sharers.clear()
        sharers.add(core)
        entry.owner = core
        entry.state = MODIFIED
        entry.dirty = True
        if replicate and self.replica_would_help(home, core, entry.line_addr):
            self.create_replica(core, entry.line_addr, MODIFIED, True, False, t)
        return MODIFIED, sharer_latency

    def _invalidate_for_write(
        self, home: int, writer: int, entry: HomeEntry, t: float
    ) -> float:
        """Invalidate all sharers' copies; returns the max ack round trip.

        The writer's own L1 copy survives (it receives the M grant), but a
        writer's LLC replica in S is invalidated like any other replica.
        ACKwise overflow broadcasts the invalidation to every core.
        """
        members = entry.sharers.members()
        if entry.sharers.precise:
            targets = set(members)
        else:
            targets = set(range(self.config.num_cores))
            self.stats.bump("broadcast_invalidations")
        targets.discard(writer)

        line_addr = entry.line_addr
        max_rtt = 0.0
        for target in sorted(targets):
            inval_arrive = self.mesh.send(home, target, self._control_flits, t) \
                if target != home else t
            self.stats.bump("invalidations_sent")
            had_copy, dirty, replica_reuse = self.invalidate_local_copies(
                target, line_addr, inval_arrive)
            if replica_reuse is not None:
                self._classifier_invalidated(entry, target, replica_reuse)
            if not had_copy:
                # Broadcast probe of a non-holder: no acknowledgement needed
                # (ACKwise counts acks only from true sharers).
                continue
            flits = self._data_flits if dirty else self._control_flits
            ack_arrive = self.mesh.send(target, home, flits, inval_arrive) \
                if target != home else inval_arrive
            if dirty:
                entry.dirty = True
                self.stats.bump("dirty_writebacks")
            rtt = ack_arrive - t
            if rtt > max_rtt:
                max_rtt = rtt
        # The writer is the requester: no invalidation message is needed,
        # but a writer-side LLC replica in S must be dropped locally.
        _had, _dirty, writer_reuse = self._invalidate_replica_only(writer, line_addr, t)
        if writer_reuse is not None:
            self._classifier_invalidated(entry, writer, writer_reuse)
        self._classifier_after_write(entry, writer, members)
        return max_rtt

    def _invalidate_replica_only(
        self, target: int, line_addr: int, now: float
    ) -> tuple[bool, bool, Optional[int]]:
        """Invalidate only the LLC replica of the *writer* (keep its L1)."""
        return False, False, None  # base machine: no replicas

    def _downgrade_owner(self, home: int, entry: HomeEntry, t: float) -> float:
        """Ask the E/M owner to downgrade to S and write back dirty data."""
        owner = entry.owner
        assert owner is not None
        arrive = self.mesh.send(home, owner, self._control_flits, t) if owner != home else t
        dirty = self._downgrade_local_copies(owner, entry.line_addr)
        self.stats.bump("downgrades")
        flits = self._data_flits if dirty else self._control_flits
        ack = self.mesh.send(owner, home, flits, arrive) if owner != home else arrive
        if dirty:
            entry.dirty = True
            self.stats.bump("dirty_writebacks")
        entry.owner = None
        entry.state = MESIState.SHARED
        return ack - t

    def _downgrade_local_copies(self, target: int, line_addr: int) -> bool:
        """Downgrade M/E copies in ``target``'s hierarchy; True if dirty."""
        dirty = self.l1d[target].downgrade(line_addr)
        # Instruction lines can hold EXCLUSIVE too (sole first reader).
        dirty = self.l1i[target].downgrade(line_addr) or dirty
        self.stats.energy_event(energy_events.L1D_READ)
        replica = self.slices[self.replica_slice_for(target, line_addr)].replica(line_addr)
        if replica is not None and replica.state.writable:
            dirty = dirty or replica.dirty or replica.state == MESIState.MODIFIED
            replica.state = MESIState.SHARED
            replica.dirty = False
            self.stats.energy_event(energy_events.LLC_TAG_WRITE)
        return dirty

    # -- classifier notification points (overridden by the locality scheme) ----
    def _classifier_invalidated(self, entry: HomeEntry, core: int, replica_reuse: int) -> None:
        """A replica belonging to ``core`` was invalidated by a write."""

    def _classifier_after_write(self, entry: HomeEntry, writer: int, sharers) -> None:
        """Post-invalidation classifier bookkeeping for a write."""

    def _classifier_replica_evicted(self, entry: HomeEntry, core: int, replica_reuse: int) -> None:
        """A replica belonging to ``core`` was evicted for capacity."""

    # ------------------------------------------------------------------
    # DRAM path
    # ------------------------------------------------------------------
    def _fetch_from_dram(self, home: int, line_addr: int, t: float) -> tuple[HomeEntry, float]:
        """Fetch a line from memory and install the home entry."""
        llc = self.slices[home]
        victim = llc.victim_for(line_addr)
        if victim is not None:
            self.evict_slice_entry(home, victim, t)
        controller, _, dram_latency = self.dram.read(line_addr, t)
        ctrl_core = controller.core_id
        if ctrl_core != home:
            request_arrive = self.mesh.send(home, ctrl_core, self._control_flits, t)
            response = self.mesh.send(
                ctrl_core, home, self._data_flits, request_arrive + dram_latency)
        else:
            response = t + dram_latency
        energy_counts = self._energy_counts
        energy_counts[energy_events.DRAM_READ] += 1
        entry = HomeEntry(
            line_addr,
            make_sharer_tracker(self.config.num_cores, self.config.ackwise_pointers),
            SHARED,
        )
        entry.classifier = self._new_classifier_state()
        llc.insert(entry)
        energy_counts[energy_events.LLC_TAG_WRITE] += 1
        energy_counts[energy_events.LLC_DATA_WRITE] += 1
        return entry, response - t

    def _new_classifier_state(self):
        """Classifier state for a fresh home entry (locality scheme only)."""
        return None

    def _writeback_to_dram(self, slice_core: int, line_addr: int, t: float) -> None:
        """Send a dirty line off chip (off the critical path)."""
        controller = self.dram.controller_for(line_addr)
        if controller.core_id != slice_core:
            self.mesh.send(slice_core, controller.core_id, self._data_flits, t)
        self.dram.write(line_addr, t)
        self.stats.energy_event(energy_events.DRAM_WRITE)
        self.stats.bump("dram_writebacks")

    # ------------------------------------------------------------------
    # LLC slice room-making and evictions
    # ------------------------------------------------------------------
    def _make_room(self, slice_core: int, line_addr: int, t: float) -> None:
        victim = self.slices[slice_core].victim_for(line_addr)
        if victim is not None:
            self.evict_slice_entry(slice_core, victim, t)

    def _evict_home_entry(self, slice_core: int, entry: HomeEntry, t: float) -> None:
        """Evict a home line: back-invalidate all sharers, write back dirty."""
        self.stats.bump("home_evictions")
        line_addr = entry.line_addr
        members = entry.sharers.members()
        if entry.sharers.precise:
            targets = set(members)
        else:
            targets = set(range(self.config.num_cores))
        dirty = entry.dirty
        for target in sorted(targets):
            if target != slice_core:
                self.mesh.send(slice_core, target, self._control_flits, t)
            had_copy, copy_dirty, _replica_reuse = self.invalidate_local_copies(
                target, line_addr, t)
            if had_copy:
                self.stats.bump("back_invalidations")
                flits = self._data_flits if copy_dirty else self._control_flits
                if target != slice_core:
                    self.mesh.send(target, slice_core, flits, t)
                dirty = dirty or copy_dirty
        self.slices[slice_core].remove(line_addr)
        self.stats.energy_event(energy_events.LLC_TAG_WRITE)
        if dirty:
            self.stats.energy_event(energy_events.LLC_DATA_READ)
            self._writeback_to_dram(slice_core, line_addr, t)
        self._line_busy.pop((slice_core, line_addr), None)
        self._active_home.pop(line_addr, None)
        if self.observer is not None:
            self.observer.on_home_eviction(line_addr)

    def _evict_replica_entry(self, slice_core: int, entry: ReplicaEntry, t: float) -> None:
        """Evict a replica: back-invalidate the local L1, notify the home."""
        self.stats.bump("replica_evictions")
        line_addr = entry.line_addr
        dirty = entry.dirty or entry.state == MESIState.MODIFIED
        for child in self._replica_children(slice_core):
            for l1 in (self.l1d[child], self.l1i[child]):
                l1_entry = l1.invalidate(line_addr)
                if l1_entry is not None:
                    self.stats.bump("back_invalidations")
                    dirty = dirty or l1_entry.dirty or l1_entry.state == MESIState.MODIFIED
        self.slices[slice_core].remove(line_addr)
        home = self._home_of_cached_line(slice_core, line_addr)
        flits = self._data_flits if dirty else self._control_flits
        if home != slice_core:
            self.mesh.send(slice_core, home, flits, t)
        home_entry = self.slices[home].home(line_addr)
        if home_entry is not None:
            self._classifier_replica_evicted(home_entry, slice_core, entry.reuse.value)
            home_entry.sharers.remove(slice_core)
            if home_entry.owner == slice_core:
                home_entry.owner = None
                home_entry.state = MESIState.SHARED
            if dirty:
                home_entry.dirty = True
                self.stats.energy_event(energy_events.LLC_DATA_WRITE)
            self.stats.energy_event(energy_events.DIR_WRITE)

    # ------------------------------------------------------------------
    # L1 fills and evictions
    # ------------------------------------------------------------------
    def _fill_l1(
        self,
        core: int,
        line_addr: int,
        state: MESIState,
        write: bool,
        is_ifetch: bool,
        now: float,
        dirty: bool = False,
    ) -> None:
        l1 = self.l1i[core] if is_ifetch else self.l1d[core]
        entry, victim = l1.fill(line_addr, state)
        if dirty:
            entry.dirty = True
        if write:
            entry.state = MODIFIED
            entry.dirty = True
        self._l1_energy(is_ifetch, read=False)
        replica = self.slices[self.replica_slice_for(core, line_addr)].replica(line_addr)
        if replica is not None:
            replica.l1_copy = True
        if victim is not None:
            self._counters["l1_evictions"] += 1
            self.handle_l1_eviction(core, victim, is_ifetch, now)

    def _notify_home_of_l1_eviction(
        self, core: int, victim: L1Line, is_ifetch: bool, now: float
    ) -> None:
        """Default L1-victim path: merge into a local replica if one exists,
        otherwise acknowledge (and write back) to the home (Section 2.2.3)."""
        line_addr = victim.line_addr
        dirty = victim.dirty or victim.state == MODIFIED
        replica = self.slices[self.replica_slice_for(core, line_addr)].replica(line_addr)
        if replica is not None:
            # Dirty data merges into the replica; the core remains a sharer.
            replica.l1_copy = False
            if dirty:
                replica.dirty = True
                if replica.state >= EXCLUSIVE:
                    replica.state = MODIFIED
                self._energy_counts[energy_events.LLC_DATA_WRITE] += 1
            return
        home = self._home_of_cached_line(core, line_addr, is_ifetch)
        flits = self._data_flits if dirty else self._control_flits
        if home != core:
            self.mesh.send(core, home, flits, now)
        home_entry = self.slices[home].home(line_addr)
        if home_entry is not None:
            home_entry.sharers.remove(core)
            if home_entry.owner == core:
                home_entry.owner = None
                home_entry.state = SHARED
            if dirty:
                home_entry.dirty = True
                self._energy_counts[energy_events.LLC_DATA_WRITE] += 1
            self._energy_counts[energy_events.DIR_WRITE] += 1

    # ------------------------------------------------------------------
    # Home resolution and migration (R-NUCA support)
    # ------------------------------------------------------------------
    def _migrate_home(self, line_addr: int, old_home: int, new_home: int, now: float) -> None:
        """R-NUCA private→shared transition: flush the line from its old home."""
        entry = self.slices[old_home].home(line_addr)
        if entry is not None:
            self._evict_home_entry(old_home, entry, now)

    def _home_of_cached_line(self, core: int, line_addr: int, is_ifetch: bool = False) -> int:
        """Home of a line already resident in a cache (no learning side effects)."""
        if is_ifetch and self.placement.homes_depend_on_requester:
            return self.placement.home_for(line_addr, core, True)
        current = self._active_home.get(line_addr)
        if current is not None:
            return current
        return self.placement.home_for(line_addr, core, False)

    # ------------------------------------------------------------------
    # Temporal Locality Hints (the Section 2.2.4 alternative)
    # ------------------------------------------------------------------
    def _maybe_send_tla_hint(
        self, core: int, line_addr: int, is_ifetch: bool, now: float
    ) -> None:
        """Every Nth L1 hit refreshes the backing LLC entry's LRU state.

        This is the TLA mechanism the paper's modified-LRU replaces: it
        achieves the same goal (the LLC learns which lines have live L1
        copies) but pays a hint message per interval (network traffic the
        in-cache directory makes unnecessary)."""
        self._tla_hit_counts[core] += 1
        if self._tla_hit_counts[core] % self.config.tla_hint_interval:
            return
        replica_slice = self.replica_slice_for(core, line_addr)
        llc = self.slices[replica_slice]
        target_entry = llc.lookup(line_addr)
        target_slice = replica_slice
        if target_entry is None:
            target_slice = self._home_of_cached_line(core, line_addr, is_ifetch)
            target_entry = self.slices[target_slice].home(line_addr)
        if target_entry is None:
            return
        if target_slice != core:
            self.mesh.send(core, target_slice, self._control_flits, now)
        self.slices[target_slice].touch(target_entry)
        self.stats.energy_event(energy_events.LLC_TAG_WRITE)
        self.stats.bump("tla_hints_sent")

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------
    def _l1_energy(self, is_ifetch: bool, read: bool) -> None:
        if is_ifetch:
            event = energy_events.L1I_READ if read else energy_events.L1I_WRITE
        else:
            event = energy_events.L1D_READ if read else energy_events.L1D_WRITE
        self._energy_counts[event] += 1

    def finalize(self) -> None:
        """Fold network/DRAM hardware counters into the energy counts."""
        self.stats.energy_counts[energy_events.ROUTER_FLIT] = self.mesh.router_flit_traversals
        self.stats.energy_counts[energy_events.LINK_FLIT] = self.mesh.link_flit_traversals
        self.stats.counters["mesh_messages"] = self.mesh.messages_sent
        self.stats.counters["mesh_flits"] = self.mesh.total_flits
