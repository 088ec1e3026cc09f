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
* :meth:`handle_l1_eviction` — what happens to L1 victims (by default
  they merge into a local replica or are acknowledged to the home);
* :meth:`invalidate_local_copies` — what an invalidation must probe.

Timing follows Section 3.4: every L1-miss latency is decomposed into the
L1→LLC-replica, L1→LLC-home, LLC-home-waiting (per-line serialization),
LLC-home→sharers and LLC-home→off-chip components.  Coherence actions
that are off the critical path (evictions, write-backs) still send real
messages through the mesh — they contend for links and consume energy —
but do not stall the requester.
"""

from __future__ import annotations

from functools import partial
from typing import Optional


from repro.cache.entries import HomeEntry, L1Line, ReplicaEntry
from repro.cache.l1 import L1Cache
from repro.cache.llc import LLCSlice
from repro.cache.replacement import make_policy
from repro.coherence.sharers import AckwiseSharers, FullMapSharers
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


#: A local replica hit as :meth:`ProtocolEngine.local_lookup` returns it:
#: ``(latency, granted_state, dirty)``, a plain tuple so that serving a
#: hit constructs no object.
LocalHit = tuple[float, MESIState, bool]


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
        #: Saturation value of replica reuse counters (``ReplicaEntry.reuse``).
        self.reuse_max = config.reuse_counter_max
        # Bound once so the replica-hit path converts nothing per hit.
        self._llc_tag_latency = float(config.llc_tag_latency)
        self._llc_data_latency = float(config.llc_data_latency)
        # make_sharer_tracker's choice, made once for every off-chip fill.
        pointers = config.ackwise_pointers
        self._new_sharers = FullMapSharers if pointers is None \
            else partial(AckwiseSharers, pointers)
        #: The placement's learning hook, or None when it does not learn.
        learns = type(self.placement).observe_access is not Placement.observe_access
        self._observe_access = self.placement.observe_access if learns else None
        #: Only engines that look replicas up keep any (not S-NUCA, R-NUCA).
        self._holds_replicas = type(self).local_lookup is not ProtocolEngine.local_lookup

    def __init_subclass__(cls, **kwargs) -> None:
        """Reject a scheme that redefines the per-access body.

        The kernels run :meth:`make_fast_access`'s closure, never
        :meth:`access`, so an override of either would be bypassed or
        would fork the protocol; schemes extend the body through hooks.
        """
        super().__init_subclass__(**kwargs)
        for name in ("access", "make_fast_access"):
            if name in vars(cls):
                raise TypeError(
                    f"{cls.__name__} redefines ProtocolEngine.{name}; extend "
                    "the access path through the scheme hooks instead"
                )

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

        Returns ``(hit, probe_cost)``; ``hit`` is None on a miss, else a
        :data:`LocalHit` tuple, and ``probe_cost`` is the critical-path
        cycles spent probing (charged to the L1→LLC-replica bucket either
        way).  On a hit the override either marks the replica as backing
        the new L1 copy (``l1_copy = True``) or removes it.  The base
        machine has no replicas and skips the probe entirely.
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
        """Materialize a replica after a home fill (no-op by default); the
        replica it creates or finds backs the new L1 copy (``l1_copy``)."""

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

    def evict_slice_entry(self, slice_core: int, entry, now: float) -> None:
        """Evict one LLC slice entry (home or replica) with full protocol."""
        if isinstance(entry, HomeEntry):
            self._evict_home_entry(slice_core, entry, now)
        else:
            self._evict_replica_entry(slice_core, entry, now)

    # ------------------------------------------------------------------
    # Top-level access path
    # ------------------------------------------------------------------
    def access(self, core: int, atype: AccessType, line_addr: int, now: float) -> float:
        """Process one memory reference from ``core`` at time ``now``.

        Returns its latency.  A thin entry for one-off callers such as
        unit tests: it runs the closure :meth:`make_fast_access` builds,
        which the kernels take once per run instead.  ``atype`` may be a
        plain int; the closure itself compares enum members by identity.
        """
        return self.make_fast_access()(core, AccessType(atype), line_addr, now)

    def make_fast_access(self):
        """The engine's one per-access body, as a closure.

        ``fast_access(core, atype, line_addr, now)`` processes one memory
        reference and returns its latency: the L1 probe, and on a miss the
        local lookup, the home request, the L1 fill and the eviction
        dispatch, with every per-call attribute lookup bound up front.
        Schemes change it only through the hooks it calls as bound
        methods (:meth:`local_lookup`, :meth:`_home_request`,
        :meth:`handle_l1_eviction`, :meth:`_maybe_send_tla_hint`);
        :meth:`__init_subclass__` rejects a subclass that redefines this
        method or :meth:`access`.
        """
        if "access" in vars(self):
            raise TypeError(
                f"{type(self).__name__} instance overrides access(); the "
                "kernels run make_fast_access()'s closure and would bypass it"
            )
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
        # The base local_lookup finds nothing for free: skip its frame.
        local_lookup = self.local_lookup if self._holds_replicas else None
        home_request = self._home_request
        handle_l1_eviction = self.handle_l1_eviction
        observer = self.observer
        IFETCH = AccessType.IFETCH
        WRITE = AccessType.WRITE
        L1_HIT = MissStatus.L1_HIT
        L1_HIT_TIME = stat_names.L1_HIT_TIME
        L1_TO_LLC_REPLICA = stat_names.L1_TO_LLC_REPLICA
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
            hit, probe_cost = local_lookup(core, line_addr, write, is_ifetch, now) \
                if local_lookup is not None else (None, 0.0)
            if probe_cost:
                latency_buckets[L1_TO_LLC_REPLICA] += probe_cost
            if hit is None:
                # A replica backing the new L1 copy was marked by
                # local_lookup (hit) or create_replica (home fill); any
                # other one was hit or removed.
                latency, status, state = home_request(
                    core, line_addr, write, is_ifetch, now + probe_cost)
                dirty = False
            else:
                counters["llc_replica_hits"] += 1
                if observer is not None:
                    observer.on_replica_access(core, line_addr, write)
                latency, state, dirty = hit
                status = LLC_REPLICA_HIT
            # The fill (and any L1 eviction it triggers) is timestamped at
            # the *issue* time, not issue + latency: off-critical-path
            # messages must not reserve mesh links ahead of the global
            # simulation frontier, or critical-path traffic would queue
            # behind reservations for links that are actually idle.
            entry, victim = l1.fill(line_addr, state)
            if dirty:
                entry.dirty = True
            if write:
                entry.state = MODIFIED
                entry.dirty = True
            energy_counts[L1I_WRITE if is_ifetch else L1D_WRITE] += 1
            if victim is not None:
                counters["l1_evictions"] += 1
                handle_l1_eviction(core, victim, is_ifetch, now)
            miss_status[status] += 1
            latency_buckets[L1_HIT_TIME] += l1_latency
            return latency + probe_cost + l1_latency

        return fast_access

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------
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

        if self._observe_access is not None:
            self._observe_access(line_addr, core, is_ifetch)
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
        """Invalidate only the *writer*'s LLC replica (per-core by default)."""
        llc = self.slices[target]
        replica = llc.replica(line_addr) if self._holds_replicas else None
        if replica is None:
            return False, False, None
        llc.remove(line_addr)
        self._energy_counts[energy_events.LLC_TAG_WRITE] += 1
        return True, replica.dirty or replica.state == MODIFIED, None

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
        entry = HomeEntry(line_addr, self._new_sharers(), SHARED)
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
            self._classifier_replica_evicted(home_entry, slice_core, entry.reuse)
            home_entry.sharers.remove(slice_core)
            if home_entry.owner == slice_core:
                home_entry.owner = None
                home_entry.state = MESIState.SHARED
            if dirty:
                home_entry.dirty = True
                self.stats.energy_event(energy_events.LLC_DATA_WRITE)
            self.stats.energy_event(energy_events.DIR_WRITE)

    # ------------------------------------------------------------------
    # L1 evictions
    # ------------------------------------------------------------------
    def handle_l1_eviction(self, core: int, victim: L1Line, is_ifetch: bool, now: float) -> None:
        """Dispose of an L1 victim (scheme hook; overrides fall back here).

        The default merges the victim into the core's local replica if one
        exists (dirty data makes the replica dirty; the core stays a
        sharer), otherwise sends the home an acknowledgement — a
        write-back when dirty — and drops the core from the sharers
        (Section 2.2.3)."""
        line_addr = victim.line_addr
        dirty = victim.dirty or victim.state == MODIFIED
        if self._holds_replicas:
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
        # _home_of_cached_line, inlined (it is the specification).
        placement = self.placement
        if is_ifetch and placement.homes_depend_on_requester:
            home = placement.home_for(line_addr, core, True)
        else:
            home = self._active_home.get(line_addr)
            if home is None:
                home = placement.home_for(line_addr, core, False)
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
    def finalize(self) -> None:
        """Fold network/DRAM hardware counters into the energy counts."""
        self.stats.energy_counts[energy_events.ROUTER_FLIT] = self.mesh.router_flit_traversals
        self.stats.energy_counts[energy_events.LINK_FLIT] = self.mesh.link_flit_traversals
        self.stats.counters["mesh_messages"] = self.mesh.messages_sent
        self.stats.counters["mesh_flits"] = self.mesh.total_flits
