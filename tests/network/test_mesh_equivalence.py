"""The flat-array ``Mesh.send`` against the dict-of-tuples contention formula.

``DictMesh`` below keeps the straightforward form of the contention model:
routes re-walked through :meth:`MeshTopology.route`, and per-link
``(epoch, flits)`` tuples in a dict keyed by the ``(from, to)`` link.
Random message sequences, with out-of-order departures, epoch crossings
and local (``src == dst``) sends, must produce exactly the same arrival
times and counters from both.
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
