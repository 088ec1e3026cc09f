"""Exact SimStats digests for the replica-serving scheme variants.

The perf harness (``perfbench/digests.json``) pins the Figure 6-8 grid,
``replica-hot`` and the streamed capture, but only at the configurations
those workloads run: RT-3/VR/ASR-at-its-best-level with the default
knobs.  These goldens pin what it does not check — cluster-level
replication, the oracle lookup, Shared-only replicas, the sparse
classifier organization, RT-8's wider reuse counter, VR and every ASR
replication level — by a SHA-256 over every raw ``SimStats`` field (the
fields ``perfbench/run.py::stats_digest`` hashes).  A refactor of the
local-replica path that changes any simulated number fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.common.params import MachineConfig
from repro.common.types import MissStatus
from repro.schemes.asr import ASRScheme
from repro.schemes.factory import make_scheme
from repro.sim.simulator import simulate
from repro.workloads.benchmarks import build_trace, get_profile

BENCHMARK = "BARNES"
SCALE = 0.1
SEED = 1

#: (case name, scheme label, MachineConfig overrides, scheme kwargs).
#: Cluster-level replication runs on a 16-core tiny machine: on the
#: 4-core one a cluster of 4 is the whole chip, which never replicates.
CASES = [
    ("RT-3", "RT-3", {}, {}),
    ("RT-3/cluster_size=4", "RT-3", {"num_cores": 16, "cluster_size": 4}, {}),
    ("RT-3/oracle_lookup", "RT-3", {}, {"oracle_lookup": True}),
    ("RT-3/shared_only_replicas", "RT-3", {}, {"shared_only_replicas": True}),
    ("RT-3/sparse", "RT-3", {"classifier_organization": "sparse"}, {}),
    ("RT-8", "RT-8", {}, {}),
    ("VR", "VR", {}, {}),
] + [
    (f"ASR/{level}", "ASR", {}, {"replication_level": level})
    for level in ASRScheme.LEVELS
]


def stats_digest(stats) -> str:
    """SHA-256 over every raw field of a SimStats."""
    payload = {
        "num_cores": stats.num_cores,
        "completion_time": stats.completion_time,
        "core_finish": list(stats.core_finish),
        "counters": dict(stats.counters),
        "energy_counts": dict(stats.energy_counts),
        "latency": dict(stats.latency),
        "miss_status": {status.name: count for status, count in stats.miss_status.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def runs() -> dict:
    """Case name -> SimStats, every case on one trace per core count."""
    traces = {}
    result = {}
    for name, label, overrides, kwargs in CASES:
        config = MachineConfig.tiny(**overrides)
        if config.num_cores not in traces:
            traces[config.num_cores] = build_trace(
                get_profile(BENCHMARK), config, scale=SCALE, seed=SEED
            )
        engine = make_scheme(label, config, **kwargs)
        result[name] = simulate(engine, traces[config.num_cores])
    return result


def test_replica_path_digests(golden_store, runs):
    digests = {name: stats_digest(stats) for name, stats in runs.items()}
    golden_store.check(
        "replica_path_digests",
        {"benchmark": BENCHMARK, "scale": SCALE, "seed": SEED, "digests": digests},
    )


def test_cases_exercise_replica_hits(runs):
    """Every case that can replicate serves some L1 misses from a
    replica, so the digests cover the replica-hit path."""
    for name, stats in runs.items():
        if name != "ASR/0.0":
            assert stats.miss_status[MissStatus.LLC_REPLICA_HIT] > 0, name
