"""The locality-aware LLC data replication protocol (Section 2 — the paper).

On top of R-NUCA data placement (without R-NUCA's instruction clustering),
the scheme replicates *any* class of cache line — instructions, private
data, shared read-only and shared read-write data — into the requesting
core's LLC slice, but only once the line has demonstrated reuse at or
above the Replication Threshold (RT).  The per-line, per-core decision is
made by a locality classifier (Complete or Limited_k, Section 2.2.5)
stored in the home directory entry, and is *adaptive*: replicas that stop
earning their keep (reuse below RT at eviction/invalidation time) demote
their core back to non-replica mode.

Replicas live in MESI states: S/E replicas serve reads; E/M replicas also
serve writes locally, which is what makes migratory shared data (LU-NC)
replicatable — something neither R-NUCA nor ASR can do (Section 2.3.1).

``cluster_size > 1`` enables cluster-level replication (Section 2.3.4):
one replica per cluster of neighboring cores, placed by address
interleaving within the cluster.  The paper finds cluster size 1 optimal;
Figure 10's sensitivity sweep reproduces that conclusion.

``oracle_lookup=True`` models the dynamic oracle of Section 2.3.2 that
skips the local-slice probe whenever no replica is present.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.entries import HomeEntry, ReplicaEntry
from repro.common.params import MachineConfig
from repro.common.types import MESIState, ReplicationMode
from repro.core.classifier import make_classifier
from repro.energy import model as energy_events
from repro.energy.model import EnergyModel, EnergyParams
from repro.network.topology import cluster_members, cluster_of
from repro.placement.base import Placement
from repro.placement.rnuca import ReactiveNuca
from repro.schemes.base import EXCLUSIVE, MODIFIED, SHARED, LocalHit, ProtocolEngine


class LocalityAwareScheme(ProtocolEngine):
    """Locality-aware selective LLC replication (the paper's protocol)."""

    name = "Locality"

    #: Directory access cost scale with the classifier attached (§2.4.2).
    DIRECTORY_ENERGY_SCALE = 1.2

    def __init__(
        self,
        config: MachineConfig,
        observer=None,
        oracle_lookup: bool = False,
        shared_only_replicas: bool = False,
    ) -> None:
        super().__init__(config, observer)
        rt = config.replication_threshold
        #: Counters must be able to reach RT (RT-8 needs >2-bit counters).
        self.reuse_max = max(self.reuse_max, rt)
        self.classifier = make_classifier(
            config.num_cores, rt, self.reuse_max, config.classifier_k
        )
        self.oracle_lookup = oracle_lookup
        #: Section 2.3.1's simpler strategy: replicas only in the Shared
        #: state.  Instructions and read-shared data still replicate, but
        #: migratory data (interleaved reads and writes) cannot — the
        #: benchmarks with such patterns (LU-NC) lose their benefit.
        self.shared_only_replicas = shared_only_replicas
        if config.classifier_organization == "sparse":
            from collections import OrderedDict
            #: Per-slice decoupled classifier side tables (Section 2.3.3).
            self._sparse_tables: list["OrderedDict[int, object]"] | None = [
                OrderedDict() for _ in range(config.num_cores)
            ]
        else:
            self._sparse_tables = None
        side = config.mesh_side
        if config.cluster_size > 1:
            self._cluster_map = [
                cluster_members(cluster_of(core, config.cluster_size, side),
                                config.cluster_size, side)
                for core in range(config.num_cores)
            ]
        else:
            self._cluster_map = None

    # ------------------------------------------------------------------
    # Scheme identity and substrate choices
    # ------------------------------------------------------------------
    def make_placement(self) -> Placement:
        # R-NUCA placement for data; instructions are classified and
        # replicated like any other line (Section 2.1), so no clustering.
        return ReactiveNuca(
            self.config.num_cores,
            self.config.lines_per_page,
            instruction_clustering=False,
        )

    def energy_model(self) -> EnergyModel:
        return EnergyModel(EnergyParams().scaled_directory(self.DIRECTORY_ENERGY_SCALE))

    def _new_classifier_state(self):
        if self._sparse_tables is not None:
            return None  # state lives in the decoupled side table
        return self.classifier.new_state()

    def _state_for(self, entry: HomeEntry):
        """Classifier state for a home entry under either organization.

        The sparse organization pays a second lookup (Section 2.3.3:
        "the energy expended to lookup two CAM structures needs to be
        paid") and loses state on side-table capacity eviction.
        """
        if self._sparse_tables is None:
            return entry.classifier
        line_addr = entry.line_addr
        home = self._active_home.get(
            line_addr, self.placement.home_for(line_addr, 0, False)
        )
        table = self._sparse_tables[home]
        self.stats.energy_event(energy_events.DIR_READ)  # second CAM
        state = table.get(line_addr)
        if state is None:
            if len(table) >= self.config.sparse_classifier_entries:
                table.popitem(last=False)
                self.stats.bump("sparse_classifier_evictions")
            state = self.classifier.new_state()
            table[line_addr] = state
        else:
            table.move_to_end(line_addr)
        return state

    def replica_slice_for(self, core: int, line_addr: int) -> int:
        if self._cluster_map is None:
            return core
        members = self._cluster_map[core]
        return members[line_addr % len(members)]

    def replica_would_help(self, home: int, core: int, line_addr: int) -> bool:
        """No replica when the home already sits inside the requester's
        cluster — with cluster size = num_cores this degenerates to
        'R-NUCA except that it does not even replicate instructions'
        (Figure 10's C-64 bar)."""
        if self._cluster_map is None:
            return home != core
        return home not in self._cluster_map[core]

    # ------------------------------------------------------------------
    # Local replica lookup (Section 2.2.1 / 2.2.2)
    # ------------------------------------------------------------------
    def local_lookup(
        self, core: int, line_addr: int, write: bool, is_ifetch: bool, now: float
    ) -> tuple[Optional[LocalHit], float]:
        if self._cluster_map is None:
            slice_id = core
        else:
            slice_id = self.replica_slice_for(core, line_addr)
        llc = self.slices[slice_id]
        replica = llc.lookup(line_addr)
        if not isinstance(replica, ReplicaEntry):
            if replica is not None and slice_id == core:
                # The local slice holds the *home* entry: the replica probe
                # is physically the same tag lookup as the home access
                # (in-cache organization, Section 2.3.3), so it costs
                # nothing extra.
                return None, 0.0
            replica = None
            if self.oracle_lookup:
                return None, 0.0
        energy_counts = self._energy_counts
        energy_counts[energy_events.LLC_TAG_READ] += 1
        probe_cost = self._llc_tag_latency
        if slice_id != core:
            # Cluster-level replication: the probe crosses the mesh.
            probe_cost += self.mesh.unloaded_latency(core, slice_id, self._control_flits)
        if replica is None or (write and replica.state < EXCLUSIVE):
            if slice_id != core:
                probe_cost += self.mesh.unloaded_latency(slice_id, core, self._control_flits)
            return None, probe_cost
        if replica.reuse < replica.reuse_max:
            replica.reuse += 1
        replica.l1_copy = True
        llc.touch(replica)
        energy_counts[energy_events.LLC_DATA_READ] += 1
        latency = self._llc_data_latency
        if slice_id != core:
            latency += self.mesh.unloaded_latency(slice_id, core, self._data_flits)
        if write:
            # A write through an E/M cluster replica must hierarchically
            # invalidate the other members' L1 copies (Section 2.3.4).
            latency += self._hierarchical_invalidation(core, line_addr, slice_id, now)
            replica.state = MODIFIED
            replica.dirty = True
            return (latency, MODIFIED, False), probe_cost
        if self._cluster_map is not None:
            # Member L1s under a shared cluster replica hold S; the replica
            # itself retains cluster-level ownership (E/M).
            return (latency, SHARED, False), probe_cost
        return (latency, replica.state, False), probe_cost

    def _hierarchical_invalidation(
        self, writer: int, line_addr: int, replica_slice: int, now: float
    ) -> float:
        """Invalidate other cluster members' L1 copies under the replica."""
        if self._cluster_map is None:
            return 0.0
        max_rtt = 0.0
        for member in self._cluster_map[writer]:
            if member == writer:
                continue
            had_copy = False
            for l1 in (self.l1d[member], self.l1i[member]):
                self.stats.energy_event(energy_events.L1D_READ)
                if l1.invalidate(line_addr) is not None:
                    had_copy = True
            if had_copy:
                self.stats.bump("back_invalidations")
                rtt = 2.0 * self.mesh.unloaded_latency(
                    replica_slice, member, self.mesh.control_flits()
                )
                if rtt > max_rtt:
                    max_rtt = rtt
        return max_rtt

    # ------------------------------------------------------------------
    # Fill-time replication decision (the classifier)
    # ------------------------------------------------------------------
    def should_replicate(
        self, home_entry: HomeEntry, core: int, write: bool, is_ifetch: bool, only_sharer: bool
    ) -> bool:
        state = self._state_for(home_entry)
        before = state.mode(core)
        if write:
            replicate = self.classifier.on_home_write(state, core, only_sharer)
        else:
            replicate = self.classifier.on_home_read(state, core)
        if before == ReplicationMode.NON_REPLICA and state.mode(core) == ReplicationMode.REPLICA:
            self.stats.bump("promotions")
        return replicate

    def create_replica(
        self, core: int, line_addr: int, state: MESIState, write: bool, is_ifetch: bool, now: float
    ) -> None:
        if self.shared_only_replicas and (write or state != MESIState.SHARED):
            return  # Section 2.3.1: the simple strategy skips E/M replicas
        slice_id = self.replica_slice_for(core, line_addr)
        llc = self.slices[slice_id]
        existing = llc.lookup(line_addr)
        if existing is not None:  # a home or replica entry already
            if isinstance(existing, ReplicaEntry):
                existing.l1_copy = True  # it backs the L1 copy being filled
            return
        self._make_room(slice_id, line_addr, now)
        replica = ReplicaEntry(line_addr, state, self.reuse_max)
        if write:
            replica.state = MESIState.MODIFIED
        replica.l1_copy = True  # it backs the L1 copy being filled
        llc.insert(replica)
        self.stats.energy_event(energy_events.LLC_TAG_WRITE)
        self.stats.energy_event(energy_events.LLC_DATA_WRITE)
        self.stats.bump("replicas_created")

    # ------------------------------------------------------------------
    # Invalidation / eviction classifier feedback (Section 2.2.3)
    # ------------------------------------------------------------------
    def invalidate_local_copies(
        self, target: int, line_addr: int, now: float
    ) -> tuple[bool, bool, Optional[int]]:
        had_copy, dirty, _ = super().invalidate_local_copies(target, line_addr, now)
        slice_id = self.replica_slice_for(target, line_addr)
        llc = self.slices[slice_id]
        self.stats.energy_event(energy_events.LLC_TAG_READ)
        replica = llc.replica(line_addr)
        reuse: Optional[int] = None
        if replica is not None:
            had_copy = True
            dirty = dirty or replica.dirty or replica.state == MESIState.MODIFIED
            reuse = replica.reuse
            llc.remove(line_addr)
            self.stats.bump("replica_invalidations")
            dirty = self._invalidate_replica_children(
                slice_id, line_addr, keep=target) or dirty
        return had_copy, dirty, reuse

    def _invalidate_replica_only(self, target, line_addr, now):
        slice_id = self.replica_slice_for(target, line_addr)
        llc = self.slices[slice_id]
        replica = llc.replica(line_addr)
        if replica is None:
            return False, False, None
        dirty = replica.dirty or replica.state == MESIState.MODIFIED
        reuse = replica.reuse
        llc.remove(line_addr)
        self.stats.energy_event(energy_events.LLC_TAG_WRITE)
        self.stats.bump("replica_invalidations")
        dirty = self._invalidate_replica_children(slice_id, line_addr, keep=target) or dirty
        return True, dirty, reuse

    def _invalidate_replica_children(
        self, replica_slice: int, line_addr: int, keep: int
    ) -> bool:
        """Invalidate the member L1 copies beneath a removed cluster replica.

        Members that hit the shared replica directly never registered at
        the home, so the replica's removal must hierarchically collect
        their L1 copies (Section 2.3.4).  ``keep`` is exempted (the
        requesting writer receives its grant instead).
        """
        if self._cluster_map is None:
            return False
        dirty = False
        for member in self._replica_children(replica_slice):
            if member == keep:
                continue
            for l1 in (self.l1d[member], self.l1i[member]):
                entry = l1.invalidate(line_addr)
                if entry is not None:
                    self.stats.bump("back_invalidations")
                    dirty = dirty or entry.dirty or entry.state == MESIState.MODIFIED
        return dirty

    def _replica_children(self, replica_slice: int) -> list[int]:
        if self._cluster_map is None:
            return [replica_slice]
        return list(self._cluster_map[replica_slice])

    def _downgrade_local_copies(self, target: int, line_addr: int) -> bool:
        dirty = super()._downgrade_local_copies(target, line_addr)
        if self._cluster_map is not None:
            # Hierarchical downgrade: members sharing the cluster replica
            # may hold M/E L1 copies beneath it.
            for member in self._cluster_map[target]:
                if member != target:
                    dirty = self.l1d[member].downgrade(line_addr) or dirty
        return dirty

    def _classifier_invalidated(self, entry: HomeEntry, core: int, replica_reuse: int) -> None:
        state = self._state_for(entry)
        before = state.mode(core)
        self.classifier.on_invalidation(state, core, replica_reuse)
        if before == ReplicationMode.REPLICA and state.mode(core) == ReplicationMode.NON_REPLICA:
            self.stats.bump("demotions")

    def _classifier_after_write(self, entry: HomeEntry, writer: int, sharers) -> None:
        state = self._state_for(entry)
        self.classifier.on_write_reset_others(state, writer, sharers)
        self.classifier.mark_inactive_nonreplicas(state, writer)

    def _classifier_replica_evicted(self, entry: HomeEntry, core: int, replica_reuse: int) -> None:
        state = self._state_for(entry)
        before = state.mode(core)
        self.classifier.on_replica_eviction(state, core, replica_reuse)
        if before == ReplicationMode.REPLICA and state.mode(core) == ReplicationMode.NON_REPLICA:
            self.stats.bump("demotions")
