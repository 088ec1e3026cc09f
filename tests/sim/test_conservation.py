"""Conservation laws over the Figures 6-8 grid.

Every simulated cycle of a core is charged to exactly one latency bucket
(compute, synchronization or one of the memory components), and every L1
miss is served exactly once (a local replica, the home, or off chip).
So over a whole run:

* the non-L1-hit ``miss_status`` total equals ``l1i_misses + l1d_misses``;
* ``llc_replica_hits`` equals ``miss_status[LLC_REPLICA_HIT]``;
* the latency buckets sum to the cores' summed finish times.

The bucket law does not hold yet on runs that serve replica hits: a
replica hit's data-array latency advances the core's clock but is charged
to no bucket (ROADMAP item 1), so those runs are strict xfails, which
fixing the hole turns into passes.
"""

from __future__ import annotations

import pytest

from repro.common.params import MachineConfig
from repro.common.types import MissStatus
from repro.schemes.factory import FIGURE_SCHEMES, make_scheme
from repro.sim.simulator import simulate
from repro.workloads.benchmarks import build_trace, get_profile

BENCHMARKS = ("BLACKSCHOLES", "FLUIDANIMATE")

#: The whole grid simulates in ~4 s here, and RT-3 serves replica hits
#: on BLACKSCHOLES (at scale 0.3 it serves none).
SCALE = 0.4

#: The runs that serve replica hits at ``SCALE`` (seed 1, small machine).
REPLICA_SERVING = {
    ("BLACKSCHOLES", "VR"),
    ("BLACKSCHOLES", "ASR"),
    ("BLACKSCHOLES", "RT-1"),
    ("BLACKSCHOLES", "RT-3"),
    ("FLUIDANIMATE", "VR"),
}

RUNS = [(benchmark, scheme) for benchmark in BENCHMARKS for scheme in FIGURE_SCHEMES]


@pytest.fixture(scope="module")
def grid():
    """``SimStats`` per ``(benchmark, scheme)`` run, simulated once."""
    config = MachineConfig.small()
    stats = {}
    for benchmark in BENCHMARKS:
        traces = build_trace(get_profile(benchmark), config, scale=SCALE, seed=1)
        for scheme in FIGURE_SCHEMES:
            stats[benchmark, scheme] = simulate(make_scheme(scheme, config), traces)
    return stats


def _ids(run):
    return "-".join(run)


@pytest.mark.parametrize("run", RUNS, ids=_ids)
def test_every_l1_miss_is_served_once(grid, run):
    stats = grid[run]
    served = sum(
        count for status, count in stats.miss_status.items()
        if status is not MissStatus.L1_HIT
    )
    assert served == stats.counters["l1i_misses"] + stats.counters["l1d_misses"] > 0


@pytest.mark.parametrize("run", RUNS, ids=_ids)
def test_replica_hit_counter_matches_miss_status(grid, run):
    stats = grid[run]
    assert stats.counters["llc_replica_hits"] == stats.miss_status[MissStatus.LLC_REPLICA_HIT]


@pytest.mark.parametrize("run", RUNS, ids=_ids)
def test_replica_serving_runs_are_the_known_ones(grid, run):
    """The xfails below cover exactly the runs that serve replica hits."""
    served = grid[run].miss_status[MissStatus.LLC_REPLICA_HIT]
    assert (served > 0) == (run in REPLICA_SERVING)


@pytest.mark.parametrize("run", [
    pytest.param(run, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))
    if run in REPLICA_SERVING else run
    for run in RUNS
], ids=_ids)
def test_latency_buckets_sum_to_core_time(grid, run):
    stats = grid[run]
    # Buckets and finish times add the same cycles in different orders.
    assert sum(stats.latency.values()) == pytest.approx(sum(stats.core_finish), abs=1e-6)
