"""Off-chip DRAM: 8 memory controllers with bandwidth queueing (Table 1).

Each controller serves one cache line at a time at its provisioned
bandwidth (5 GB/s → ~13 cycles of occupancy per 64-byte line at 1 GHz);
requests arriving while the controller is busy queue up, which produces
the off-chip queueing delays the paper includes in the
"LLC home to off-chip memory" latency component (Section 3.4).
"""

from __future__ import annotations

from repro.common.params import MachineConfig


class MemoryController:
    """One DRAM channel attached to a mesh tile.

    Bandwidth queueing uses the same windowed-utilization model as the
    mesh links (see :class:`repro.network.mesh.Mesh`): the controller
    counts the service cycles demanded in the current epoch and charges
    an M/D/1-style delay — stable against the slightly out-of-order
    timestamps an atomic-transaction simulator produces.
    """

    __slots__ = ("core_id", "latency", "service", "accesses", "_window")

    #: Length of a utilization-accounting window, in cycles.
    CONTENTION_EPOCH = 1024
    MAX_UTILIZATION = 0.95

    def __init__(self, core_id: int, latency_cycles: int, service_cycles: int) -> None:
        self.core_id = core_id
        self.latency = latency_cycles
        self.service = service_cycles
        self.accesses = 0
        #: (epoch index, service cycles demanded in that epoch)
        self._window: tuple[int, int] = (0, 0)

    def access(self, now: float) -> tuple[float, float]:
        """Issue one line transfer; returns ``(queue_wait, total_latency)``."""
        self.accesses += 1
        epoch = int(now) // self.CONTENTION_EPOCH
        stored_epoch, demand = self._window
        if epoch > stored_epoch:
            stored_epoch, demand = epoch, 0
        self._window = (stored_epoch, demand + self.service)
        if not demand:
            return 0.0, 0.0 + self.latency
        utilization = demand / self.CONTENTION_EPOCH
        if utilization > self.MAX_UTILIZATION:
            utilization = self.MAX_UTILIZATION
        wait = self.service * utilization / (1.0 - utilization)
        return wait, wait + self.latency


def controller_tiles(num_cores: int, num_controllers: int) -> list[int]:
    """Tiles hosting memory controllers, spread across the mesh.

    A naive ``index * (num_cores / num_controllers)`` places every
    controller in mesh column 0 (all multiples of the mesh side), turning
    that column into a bandwidth hot-spot.  Staggering alternate
    controllers by half the spacing distributes them over the die, the
    way real tiled parts place their memory PHYs on opposite edges.
    """
    spacing = num_cores // num_controllers
    tiles = []
    for index in range(num_controllers):
        offset = (spacing // 2) if index % 2 else 0
        tiles.append((index * spacing + offset) % num_cores)
    return tiles


class DramSystem:
    """The set of memory controllers, with address interleaving.

    Controllers are attached to tiles spread across the mesh (the paper
    notes "some cores have a connection to a memory controller").  Lines
    are interleaved across controllers by hashed address.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.controllers = [
            MemoryController(
                core_id=core,
                latency_cycles=config.dram_latency_cycles,
                service_cycles=config.dram_service_cycles,
            )
            for core in controller_tiles(config.num_cores, config.num_mem_controllers)
        ]
        self.reads = 0
        self.writes = 0

    def controller_for(self, line_addr: int) -> MemoryController:
        # Hash the interleave so it does not correlate with the home-slice
        # bits (line % num_cores) or with contiguous regions.
        hashed = line_addr ^ (line_addr >> 6)
        return self.controllers[hashed % len(self.controllers)]

    def read(self, line_addr: int, now: float) -> tuple[MemoryController, float, float]:
        """Fetch a line; returns ``(controller, queue_wait, total_latency)``."""
        self.reads += 1
        # controller_for and MemoryController.access, inlined (they are the
        # specification): every off-chip fill comes here.
        controllers = self.controllers
        controller = controllers[(line_addr ^ (line_addr >> 6)) % len(controllers)]
        controller.accesses += 1
        epoch = int(now) // controller.CONTENTION_EPOCH
        stored_epoch, demand = controller._window
        if epoch > stored_epoch:
            stored_epoch, demand = epoch, 0
        controller._window = (stored_epoch, demand + controller.service)
        if not demand:
            return controller, 0.0, 0.0 + controller.latency
        utilization = demand / controller.CONTENTION_EPOCH
        if utilization > controller.MAX_UTILIZATION:
            utilization = controller.MAX_UTILIZATION
        wait = controller.service * utilization / (1.0 - utilization)
        return controller, wait, wait + controller.latency

    def write(self, line_addr: int, now: float) -> MemoryController:
        """Write back a dirty line (off the critical path; occupies bandwidth)."""
        self.writes += 1
        controller = self.controller_for(line_addr)
        controller.access(now)
        return controller

    def total_accesses(self) -> int:
        return self.reads + self.writes
