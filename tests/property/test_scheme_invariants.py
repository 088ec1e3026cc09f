"""Hypothesis invariants specific to each replication scheme."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.entries import ReplicaEntry
from repro.common.params import MachineConfig
from repro.common.types import AccessType, MESIState
from repro.schemes.asr import ASRScheme
from repro.schemes.locality import LocalityAwareScheme
from repro.schemes.victim import VictimReplicationScheme

traffic = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([AccessType.READ, AccessType.WRITE]),
        st.integers(min_value=0, max_value=47),
    ),
    min_size=5,
    max_size=150,
)


def _run(engine, sequence):
    now = 0.0
    for core, atype, line in sequence:
        engine.access(core, atype, line, now)
        now += 50.0
    return engine


class TestVictimReplicationInvariants:
    @given(sequence=traffic)
    @settings(max_examples=50, deadline=None)
    def test_exclusive_l1_slice_relation(self, sequence):
        """VR never holds a line in the L1 and the local replica at once."""
        engine = _run(VictimReplicationScheme(MachineConfig.tiny()), sequence)
        for core in range(4):
            for entry in engine.slices[core]:
                if isinstance(entry, ReplicaEntry):
                    assert engine.l1d[core].lookup(entry.line_addr) is None
                    assert engine.l1i[core].lookup(entry.line_addr) is None

    @given(sequence=traffic)
    @settings(max_examples=50, deadline=None)
    def test_no_replica_of_local_home(self, sequence):
        """VR never places a victim whose home is the local slice."""
        engine = _run(VictimReplicationScheme(MachineConfig.tiny()), sequence)
        for core in range(4):
            for entry in engine.slices[core]:
                if isinstance(entry, ReplicaEntry):
                    assert entry.line_addr % 4 != core


class TestASRInvariants:
    @given(sequence=traffic)
    @settings(max_examples=50, deadline=None)
    def test_replicas_always_shared_state(self, sequence):
        """ASR replicas are S-state only (shared read-only data)."""
        engine = _run(
            ASRScheme(MachineConfig.tiny(), replication_level=1.0), sequence
        )
        for core in range(4):
            for entry in engine.slices[core]:
                if isinstance(entry, ReplicaEntry):
                    assert entry.state == MESIState.SHARED

    @given(sequence=traffic)
    @settings(max_examples=50, deadline=None)
    def test_replicated_lines_never_written(self, sequence):
        """No line with an ASR replica has ever taken a write request."""
        engine = _run(
            ASRScheme(MachineConfig.tiny(), replication_level=1.0), sequence
        )
        for core in range(4):
            for entry in engine.slices[core]:
                if isinstance(entry, ReplicaEntry):
                    assert entry.line_addr not in engine._written


class TestLocalityInvariants:
    @given(sequence=traffic, rt=st.sampled_from([1, 2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_replica_implies_sharer(self, sequence, rt):
        """Every replica's core is tracked as a sharer at a live home."""
        engine = _run(
            LocalityAwareScheme(MachineConfig.tiny(replication_threshold=rt)),
            sequence,
        )
        for core in range(4):
            for entry in engine.slices[core]:
                if not isinstance(entry, ReplicaEntry):
                    continue
                home = engine._home_of_cached_line(core, entry.line_addr)
                home_entry = engine.slices[home].home(entry.line_addr)
                assert home_entry is not None
                assert core in home_entry.sharers.members()

    @given(sequence=traffic)
    @settings(max_examples=50, deadline=None)
    def test_replica_reuse_counter_bounds(self, sequence):
        engine = _run(
            LocalityAwareScheme(MachineConfig.tiny(replication_threshold=3)),
            sequence,
        )
        for core in range(4):
            for entry in engine.slices[core]:
                if isinstance(entry, ReplicaEntry):
                    assert 1 <= entry.reuse <= engine.reuse_max

    @given(sequence=traffic)
    @settings(max_examples=50, deadline=None)
    def test_no_replica_colocated_with_home(self, sequence):
        """A slice never holds a replica of a line it is the home of."""
        engine = _run(
            LocalityAwareScheme(MachineConfig.tiny(replication_threshold=1)),
            sequence,
        )
        for core in range(4):
            for entry in engine.slices[core]:
                if isinstance(entry, ReplicaEntry):
                    home = engine._home_of_cached_line(core, entry.line_addr)
                    assert home != core
