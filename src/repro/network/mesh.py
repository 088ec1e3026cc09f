"""Electrical 2-D mesh interconnect with contention modelling.

Latency model (Table 1): each hop costs ``hop_latency`` cycles (1 router +
1 link); the message tail arrives ``flits - 1`` cycles after the head.

Contention model: per-link **windowed utilization queueing** (the same
family of analytical contention model the Graphite simulator uses).
Each directed link counts the flits it carried in the current epoch;
a message crossing a link at utilization ``u`` pays an M/D/1-style
queueing delay of ``u / (1 - u)`` service times.  This is deterministic,
O(1) memory per link, and — unlike naive busy-until reservations — is
stable when transactions carry timestamps slightly ahead of the global
simulation frontier (a busy-until model lets one far-future reservation
block frontier traffic on an idle link, producing runaway feedback).

Implementation: ``send`` sits on the miss path of every simulation
kernel, so every XY route is precomputed when the mesh is built, as a
tuple of integer link ids, and each link's epoch index and flit load
live in two flat lists indexed by link id.  The queueing delay depends
only on a link's prior load, so it is tabulated per ``flits`` value by
the same expression (loads past the clamp read the clamped entry).  A
message recomputes its epoch only when its head crosses the next epoch
boundary: for non-negative times ``int(now) // E > e`` iff ``now >= (e + 1) * E``.

Energy accounting counts router traversals and link traversals per flit;
the energy model charges them separately (Figure 6 splits "Network
Router" and "Network Link"); both, and the flit total, are derived
from one tally of flits per route length.
"""

from __future__ import annotations

from repro.common.params import MachineConfig
from repro.network.topology import MeshTopology


#: ``routes[src][dst]``: the link ids an XY route crosses, in order.
LinkRoutes = tuple[tuple[tuple[int, ...], ...], ...]


def _xy_link_routes(topology: MeshTopology) -> tuple[LinkRoutes, int]:
    """Every (src, dst) XY route as a tuple of integer link ids.

    Returns ``(routes, num_links)``.  Directed links get dense ids
    (``0 .. num_links - 1``) in first-seen order.
    """
    num_cores = topology.num_cores
    link_ids: dict[tuple[int, int], int] = {}
    routes = tuple(
        tuple(
            tuple(link_ids.setdefault(link, len(link_ids)) for link in topology.route(src, dst))
            for dst in range(num_cores)
        )
        for src in range(num_cores)
    )
    return routes, len(link_ids)


class Mesh:
    """The on-chip network: latency, contention and flit accounting."""

    #: Length of a utilization-accounting window, in cycles.
    CONTENTION_EPOCH = 512
    #: Utilization is clamped below 1 so the delay formula stays finite;
    #: at the cap a message pays ~19 service times of queueing.
    MAX_UTILIZATION = 0.95

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.topology = MeshTopology(config.num_cores)
        self._routes, num_links = _xy_link_routes(self.topology)
        self._hop_latency = config.hop_latency
        #: Per directed link: the epoch index of its current window (-1
        #: before first use; simulated times are non-negative) and the
        #: flits it carried in that window.
        self._link_epochs = [-1] * num_links
        self._link_flits = [0] * num_links
        #: ``flits -> delay table``, each built by its first send.
        self._delay_tables: dict[int, list[float]] = {}
        #: A load past the utilization clamp: larger loads pay its delay.
        self._clamp_load = int(self.MAX_UTILIZATION * self.CONTENTION_EPOCH) + 1
        #: ``_flits_by_hops[h]``: flits sent over routes of ``h`` hops.
        self._flits_by_hops = [0] * (2 * self.topology.side - 1)
        # -- counters consumed by the energy model --------------------------
        self.messages_sent = 0
        self.total_queueing_delay = 0.0

    @property
    def total_flits(self) -> int:
        return sum(self._flits_by_hops)

    @property
    def link_flit_traversals(self) -> int:
        return sum(hops * flits for hops, flits in enumerate(self._flits_by_hops))

    @property
    def router_flit_traversals(self) -> int:
        """A routed message crosses ``hops + 1`` routers, a local one none."""
        return self.link_flit_traversals + self.total_flits - self._flits_by_hops[0]

    def control_flits(self) -> int:
        """Flits in an address-only message (invalidation, ack, request)."""
        return self.config.header_flits

    def data_flits(self) -> int:
        """Flits in a message carrying a full cache line."""
        return self.config.header_flits + self.config.cache_line_flits

    def _delay_table(self, flits: int) -> list[float]:
        """Build and keep the queueing delay of a ``flits`` message by the
        link's prior load (``0 ..`` the clamp load): ``flits * u / (1 - u)``
        at ``u = load / CONTENTION_EPOCH``, capped at ``MAX_UTILIZATION``."""
        utilizations = [
            min(load / self.CONTENTION_EPOCH, self.MAX_UTILIZATION)
            for load in range(self._clamp_load + 1)
        ]
        table = [flits * utilization / (1.0 - utilization) for utilization in utilizations]
        self._delay_tables[flits] = table
        return table

    def send(self, src: int, dst: int, flits: int, depart: float) -> float:
        """Send a message; returns the arrival time of the tail flit.

        Accumulates per-link load for the contention model and the flit
        tally the router/link energy counts derive from.  ``src == dst``
        is a local operation: free and instantaneous.

        Each link on the route charges a queueing delay from the flits it
        already carried in the current epoch (a stale timestamp behind the
        link's epoch accumulates into it); the delay, plus the hop
        latency, advances the head flit.
        """
        self.messages_sent += 1
        route = self._routes[src][dst]
        hops = len(route)
        self._flits_by_hops[hops] += flits
        if not hops:
            return depart
        table = self._delay_tables.get(flits) or self._delay_table(flits)
        clamp = self._clamp_load
        epochs = self._link_epochs
        loads = self._link_flits
        epoch_cycles = self.CONTENTION_EPOCH
        hop_latency = self._hop_latency
        queueing = self.total_queueing_delay
        now = depart
        epoch = int(now) // epoch_cycles
        boundary = (epoch + 1) * epoch_cycles
        for link in route:
            if now >= boundary:
                epoch = int(now) // epoch_cycles
                boundary = (epoch + 1) * epoch_cycles
            if epoch > epochs[link]:
                epochs[link] = epoch
                loads[link] = flits
                delay = 0.0
            else:
                prior_load = loads[link]
                loads[link] = prior_load + flits
                delay = table[prior_load if prior_load < clamp else clamp]
                queueing += delay
            now += delay + hop_latency
        self.total_queueing_delay = queueing
        # Tail flit trails the head by (flits - 1) cycles of serialization.
        return now + (flits - 1)

    def round_trip(
        self, src: int, dst: int, request_flits: int, response_flits: int, depart: float
    ) -> float:
        """Request/response pair; returns the response arrival time."""
        arrive = self.send(src, dst, request_flits, depart)
        return self.send(dst, src, response_flits, arrive)

    def unloaded_latency(self, src: int, dst: int, flits: int) -> int:
        """Latency with zero contention (for analytical checks)."""
        if src == dst:
            return 0
        hops = self.topology.hops(src, dst)
        return hops * self.config.hop_latency + (flits - 1)
