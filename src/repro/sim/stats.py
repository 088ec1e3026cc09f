"""Simulation statistics: event counts, latency breakdown, energy counts.

The latency buckets mirror Section 3.4's completion-time decomposition
exactly (Figure 7's stacked bars), and the miss-status counters mirror
Figure 8's L1-miss breakdown.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.common.types import MissStatus
from repro.energy.model import EnergyModel

# -- latency bucket names (Figure 7 legend) -----------------------------------
COMPUTE = "Compute"
L1_HIT_TIME = "L1-Hit"
L1_TO_LLC_REPLICA = "L1-To-LLC-Replica"
L1_TO_LLC_HOME = "L1-To-LLC-Home"
LLC_HOME_WAITING = "LLC-Home-Waiting"
LLC_HOME_TO_SHARERS = "LLC-Home-To-Sharers"
LLC_HOME_TO_OFFCHIP = "LLC-Home-To-OffChip"
SYNCHRONIZATION = "Synchronization"

LATENCY_BUCKETS = (
    COMPUTE,
    L1_HIT_TIME,
    L1_TO_LLC_REPLICA,
    L1_TO_LLC_HOME,
    LLC_HOME_WAITING,
    LLC_HOME_TO_SHARERS,
    LLC_HOME_TO_OFFCHIP,
    SYNCHRONIZATION,
)


class Tally(Counter):
    """A :class:`~collections.Counter` whose stores run at dict speed.

    ``Counter`` defines ``__delitem__`` in Python, so CPython routes every
    item store (``counter[key] += n``) through a Python-level slot
    wrapper — about 11 of them per simulated access.  Resolving
    ``__delitem__`` back to dict's own method lets the type keep dict's C
    ``mp_ass_subscript`` slot.  Everything else is Counter's: a missing
    key reads 0 without being inserted, equality ignores zero counts, and
    arithmetic, ``most_common`` and pickling work unchanged.  The one
    difference is that ``del`` of a missing key raises ``KeyError``.
    """

    __delitem__ = dict.__delitem__


@dataclasses.dataclass
class SimStats:
    """Everything measured during one simulation run."""

    num_cores: int
    #: Protocol/microarchitectural event counts (cache hits, invalidations…).
    counters: Tally = dataclasses.field(default_factory=Tally)
    #: Energy event counts keyed by :mod:`repro.energy.model` names.
    energy_counts: Tally = dataclasses.field(default_factory=Tally)
    #: Aggregate cycles in each Section 3.4 latency component.
    latency: Tally = dataclasses.field(default_factory=Tally)
    #: L1 miss disposition counts (Figure 8).
    miss_status: Tally = dataclasses.field(default_factory=Tally)
    #: Per-core finish time (cycles); completion time is their max.
    core_finish: list = dataclasses.field(default_factory=list)
    completion_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.core_finish:
            self.core_finish = [0.0] * self.num_cores

    # -- recording helpers ---------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def energy_event(self, name: str, amount: int = 1) -> None:
        self.energy_counts[name] += amount

    def add_latency(self, bucket: str, cycles: float) -> None:
        self.latency[bucket] += cycles

    def record_miss(self, status: MissStatus) -> None:
        self.miss_status[status] += 1

    # -- derived views ----------------------------------------------------------
    def l1_misses(self) -> int:
        """Accesses that missed the L1 (Figure 8 denominator)."""
        return (
            self.miss_status[MissStatus.LLC_REPLICA_HIT]
            + self.miss_status[MissStatus.LLC_HOME_HIT]
            + self.miss_status[MissStatus.OFF_CHIP_MISS]
        )

    def miss_breakdown(self) -> dict[str, float]:
        """Fractions of L1 misses by service location (Figure 8)."""
        total = self.l1_misses()
        if total == 0:
            return {"LLC-Replica-Hits": 0.0, "LLC-Home-Hits": 0.0, "OffChip-Misses": 0.0}
        return {
            "LLC-Replica-Hits": self.miss_status[MissStatus.LLC_REPLICA_HIT] / total,
            "LLC-Home-Hits": self.miss_status[MissStatus.LLC_HOME_HIT] / total,
            "OffChip-Misses": self.miss_status[MissStatus.OFF_CHIP_MISS] / total,
        }

    def energy_breakdown(self, model: EnergyModel | None = None) -> dict[str, float]:
        """Component energies in pJ (Figure 6)."""
        return (model or EnergyModel()).breakdown(self.energy_counts)

    def total_energy(self, model: EnergyModel | None = None) -> float:
        return sum(self.energy_breakdown(model).values())

    def latency_breakdown(self) -> dict[str, float]:
        """Aggregate cycles per Section 3.4 component (Figure 7)."""
        return {bucket: self.latency[bucket] for bucket in LATENCY_BUCKETS}

    def energy_delay_product(self, model: EnergyModel | None = None) -> float:
        """EDP — the metric ASR's replication-level search minimizes."""
        return self.total_energy(model) * self.completion_time

    def offchip_miss_rate(self) -> float:
        """Off-chip misses per L1 miss."""
        total = self.l1_misses()
        if total == 0:
            return 0.0
        return self.miss_status[MissStatus.OFF_CHIP_MISS] / total

    def summary(self) -> dict[str, float]:
        """Compact scalar summary for tables and tests."""
        return {
            "completion_time": self.completion_time,
            "energy_pj": self.total_energy(),
            "l1_misses": float(self.l1_misses()),
            "replica_hit_fraction": self.miss_breakdown()["LLC-Replica-Hits"],
            "offchip_miss_rate": self.offchip_miss_rate(),
        }

    def to_dict(self, model: EnergyModel | None = None) -> dict:
        """JSON-serializable dump of everything measured (for archiving
        experiment results alongside persisted traces)."""
        return {
            "num_cores": self.num_cores,
            "completion_time": self.completion_time,
            "core_finish": list(self.core_finish),
            "counters": dict(self.counters),
            "energy_counts": dict(self.energy_counts),
            "energy_breakdown": self.energy_breakdown(model),
            "latency_breakdown": self.latency_breakdown(),
            "miss_breakdown": self.miss_breakdown(),
            "miss_status": {status.name: count
                            for status, count in self.miss_status.items()},
            "summary": self.summary(),
        }
