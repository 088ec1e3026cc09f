"""The table-driven ``Mesh.send`` against the dict-of-tuples contention formula.

``DictMesh`` below keeps the straightforward form of the contention model:
routes re-walked through :meth:`MeshTopology.route`, per-link ``(epoch,
flits)`` tuples in a dict keyed by the ``(from, to)`` link, the epoch and
the queueing delay recomputed on every hop, and counters summed eagerly.
Random message sequences, with out-of-order departures, epoch crossings,
message sizes first seen late and local (``src == dst``) sends, must
produce exactly the same arrival times and counters from both.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import MachineConfig
from repro.network.mesh import Mesh
from repro.network.topology import MeshTopology

CONFIGS = {"small": MachineConfig.small(), "paper": MachineConfig.paper()}


class DictMesh:
    """Reference contention model over a dict of per-link tuples."""

    def __init__(self, config):
        self.topology = MeshTopology(config.num_cores)
        self.hop_latency = config.hop_latency
        self.link_load = {}
        self.router_flit_traversals = 0
        self.link_flit_traversals = 0
        self.messages_sent = 0
        self.total_flits = 0
        self.total_queueing_delay = 0.0
        #: Highest prior load any link charged for (to check coverage).
        self.peak_load = 0

    def send(self, src, dst, flits, depart):
        self.messages_sent += 1
        self.total_flits += flits
        if src == dst:
            return depart
        route = list(self.topology.route(src, dst))
        now = depart
        for link in route:
            now += self.link_delay(link, flits, now) + self.hop_latency
        self.router_flit_traversals += flits * (len(route) + 1)
        self.link_flit_traversals += flits * len(route)
        return now + (flits - 1)

    def link_delay(self, link, flits, now):
        epoch = int(now) // Mesh.CONTENTION_EPOCH
        stored = self.link_load.get(link)
        if stored is None or epoch > stored[0]:
            prior_load = 0
            self.link_load[link] = (epoch, flits)
        else:
            prior_load = stored[1]
            self.link_load[link] = (stored[0], prior_load + flits)
        self.peak_load = max(self.peak_load, prior_load)
        utilization = min(prior_load / Mesh.CONTENTION_EPOCH, Mesh.MAX_UTILIZATION)
        if utilization <= 0.0:
            return 0.0
        delay = flits * utilization / (1.0 - utilization)
        self.total_queueing_delay += delay
        return delay


def assert_equivalent(config, messages):
    mesh, reference = Mesh(config), DictMesh(config)
    for src, dst, flits, depart in messages:
        assert mesh.send(src, dst, flits, depart) == reference.send(src, dst, flits, depart)
    for counter in (
        "total_queueing_delay",
        "router_flit_traversals",
        "link_flit_traversals",
        "messages_sent",
        "total_flits",
    ):
        assert getattr(mesh, counter) == getattr(reference, counter), counter
    return reference


def message_lists(num_cores):
    """Messages whose departures wander forwards and backwards across
    several contention epochs, on a few hot cores so links load up."""
    core = st.integers(min_value=0, max_value=num_cores - 1)
    return st.lists(
        st.tuples(
            core,
            st.one_of(core, st.sampled_from([0, 1, num_cores - 1])),
            st.sampled_from([1, 2, 9]),
            st.one_of(
                st.floats(min_value=0, max_value=4 * Mesh.CONTENTION_EPOCH),
                st.integers(min_value=0, max_value=4 * Mesh.CONTENTION_EPOCH),
            ),
        ),
        max_size=120,
    )


def late_flits_lists(num_cores):
    """Messages of 1 and 9 flits, then messages of a size (5) the mesh
    first sees late in the run, mixed with the earlier sizes."""
    core = st.integers(min_value=0, max_value=num_cores - 1)
    depart = st.floats(min_value=0, max_value=3 * Mesh.CONTENTION_EPOCH)

    def messages(sizes):
        return st.lists(st.tuples(core, core, st.sampled_from(sizes), depart), max_size=60)

    return st.tuples(messages([1, 9]), messages([5, 1, 9])).map(lambda parts: parts[0] + parts[1])


class TestMeshEquivalence:
    @given(messages=message_lists(16))
    @settings(max_examples=80, deadline=None)
    def test_small_machine(self, messages):
        assert_equivalent(CONFIGS["small"], messages)

    @given(messages=message_lists(64))
    @settings(max_examples=80, deadline=None)
    def test_paper_machine(self, messages):
        assert_equivalent(CONFIGS["paper"], messages)

    @pytest.mark.parametrize("machine", sorted(CONFIGS))
    def test_saturating_traffic(self, machine):
        """Long seeded runs that reach the utilization clamp, drift back
        in time, and cross many epochs."""
        config = CONFIGS[machine]
        rng = random.Random(20140215)
        cores = config.num_cores
        now = 0.0
        messages = []
        for _ in range(5000):
            src = rng.choice((0, 1, rng.randrange(cores)))
            dst = rng.choice((cores - 1, src, rng.randrange(cores)))
            now = max(0.0, now + rng.uniform(-40.0, 41.0))
            messages.append((src, dst, rng.choice((1, 9)), now))
        reference = assert_equivalent(config, messages)
        clamp_load = Mesh.MAX_UTILIZATION * Mesh.CONTENTION_EPOCH
        assert reference.peak_load > clamp_load

    @pytest.mark.parametrize("machine", sorted(CONFIGS))
    def test_head_lands_exactly_on_an_epoch_boundary(self, machine):
        """A head reaching ``(e + 1) * E`` mid-route is in the next epoch:
        the loaded second link must reset, not charge its old load."""
        config = CONFIGS[machine]
        depart = Mesh.CONTENTION_EPOCH - config.hop_latency
        messages = [(1, 2, 9, 0.0)] * 5 + [(0, 3, 9, depart), (0, 3, 9, float(depart))]
        assert_equivalent(config, messages)

    @given(messages=late_flits_lists(16))
    @settings(max_examples=60, deadline=None)
    def test_message_size_first_seen_late(self, messages):
        assert_equivalent(CONFIGS["small"], messages)

    @pytest.mark.parametrize("machine", sorted(CONFIGS))
    def test_only_local_sends(self, machine):
        config = CONFIGS[machine]
        messages = [(core, core, flits, 7.0 * core)
                    for core in range(config.num_cores) for flits in (1, 5, 9)]
        reference = assert_equivalent(config, messages)
        assert reference.total_flits == 15 * config.num_cores
        assert reference.router_flit_traversals == reference.link_flit_traversals == 0
        assert reference.total_queueing_delay == 0.0


class TestDelayTable:
    @pytest.mark.parametrize("flits", [1, 2, 9])
    def test_entries_match_the_reference_formula(self, flits):
        """Every prior load from 0 to past the clamp charges exactly the
        delay ``DictMesh.link_delay`` computes for it."""
        mesh = Mesh(CONFIGS["small"])
        table = mesh._delay_table(flits)
        clamp = len(table) - 1
        assert clamp / Mesh.CONTENTION_EPOCH > Mesh.MAX_UTILIZATION
        for prior_load in range(clamp + 4):
            reference = DictMesh(CONFIGS["small"])
            reference.link_load[(0, 1)] = (0, prior_load)
            expected = reference.link_delay((0, 1), flits, 0.0)
            assert table[min(prior_load, clamp)] == expected, prior_load

    def test_derived_counters_equal_eager_sums(self):
        """On the 64-core paper mesh, the counters derived from the
        per-hop-count tally equal sums accumulated message by message."""
        config = CONFIGS["paper"]
        mesh = Mesh(config)
        rng = random.Random(15)
        router = link = total = 0
        for _ in range(3000):
            src, dst = rng.randrange(64), rng.randrange(64)
            flits = rng.choice((1, 5, 9))
            mesh.send(src, dst, flits, rng.uniform(0.0, 2000.0))
            hops = mesh.topology.hops(src, dst)
            total += flits
            link += flits * hops
            router += flits * (hops + 1) if hops else 0
        assert (mesh.total_flits, mesh.link_flit_traversals, mesh.router_flit_traversals) == (
            total, link, router)
        assert mesh.messages_sent == 3000
