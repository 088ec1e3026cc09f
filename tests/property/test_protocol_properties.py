"""Hypothesis property tests: coherence invariants under random traffic.

Every LLC management scheme must preserve the machine-wide invariants
(single writer, inclusion, directory accuracy) for *any* access
sequence.  Hypothesis drives random multi-core read/write/ifetch mixes
through each engine on the tiny machine and checks after every burst.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import MachineConfig
from repro.common.types import AccessType
from repro.schemes.factory import make_scheme
from tests.helpers import check_coherence

SCHEMES = ("S-NUCA", "R-NUCA", "VR", "ASR", "RT-1", "RT-3")

accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),           # core
        st.sampled_from([AccessType.READ, AccessType.WRITE]),
        st.integers(min_value=0, max_value=47),          # data line
    ),
    min_size=1,
    max_size=150,
)

ifetches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=256, max_value=271),       # instruction lines
    ),
    max_size=30,
)


class TestCoherenceUnderRandomTraffic:
    @given(scheme=st.sampled_from(SCHEMES), sequence=accesses)
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, scheme, sequence):
        engine = make_scheme(scheme, MachineConfig.tiny())
        now = 0.0
        for core, atype, line in sequence:
            engine.access(core, atype, line, now)
            now += 50.0
        assert check_coherence(engine) == []

    @given(sequence=accesses, instruction_sequence=ifetches)
    @settings(max_examples=40, deadline=None)
    def test_mixed_data_and_instructions(self, sequence, instruction_sequence):
        engine = make_scheme("RT-1", MachineConfig.tiny())
        now = 0.0
        for core, atype, line in sequence:
            engine.access(core, atype, line, now)
            now += 50.0
        for core, line in instruction_sequence:
            engine.access(core, AccessType.IFETCH, line, now)
            now += 50.0
        assert check_coherence(engine) == []

    @given(sequence=accesses)
    @settings(max_examples=30, deadline=None)
    def test_latencies_positive_and_finite(self, sequence):
        engine = make_scheme("RT-3", MachineConfig.tiny())
        now = 0.0
        for core, atype, line in sequence:
            latency = engine.access(core, atype, line, now)
            assert latency >= 1.0
            assert latency < 1e7
            now += 50.0

    @given(sequence=accesses)
    @settings(max_examples=30, deadline=None)
    def test_read_after_write_semantics(self, sequence):
        """After a core writes a line, its own immediate re-read hits L1
        in a writable state (no lost updates in the hierarchy)."""
        engine = make_scheme("RT-1", MachineConfig.tiny())
        now = 0.0
        for core, atype, line in sequence:
            engine.access(core, atype, line, now)
            now += 50.0
            if atype == AccessType.WRITE:
                entry = engine.l1d[core].lookup(line)
                assert entry is not None
                assert entry.state.writable

    @given(sequence=accesses)
    @settings(max_examples=30, deadline=None)
    def test_miss_accounting_conserved(self, sequence):
        engine = make_scheme("VR", MachineConfig.tiny())
        now = 0.0
        for core, atype, line in sequence:
            engine.access(core, atype, line, now)
            now += 50.0
        stats = engine.stats
        l1_misses = stats.counters["l1d_misses"] + stats.counters["l1i_misses"]
        assert (
            stats.counters.get("llc_replica_hits", 0)
            + stats.counters.get("llc_home_hits", 0)
            + stats.counters.get("offchip_misses", 0)
            == l1_misses
        )
