"""Python calls per L1 miss: a deterministic guard for the miss path's cost.

The miss path's speed is mostly the number of Python frames it runs per
L1 miss (dead replica probes, victim scans, property frames, hook
frames).  Counting calls into :mod:`repro` with ``sys.setprofile`` needs
no wall clock, so the guard stays deterministic on any host.  The pins
are the counts measured when the path was last trimmed, plus ~3% slack;
a change that adds frames per miss fails here and must either take them
out again or re-pin with a reason.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.common.params import MachineConfig
from repro.schemes.factory import make_scheme
from repro.sim.simulator import simulate
from repro.workloads.benchmarks import build_trace, get_profile

#: label -> (scheme keyword arguments, maximum calls per L1 miss).
#: Measured at 25.7, 26.6, 30.9 and 46.0 calls per miss.
PINNED = {
    "S-NUCA": ({}, 26.5),
    "VR": ({}, 27.5),
    "ASR": ({"replication_level": 0.5}, 32.0),
    "RT-3": ({}, 47.5),
}


@pytest.fixture(scope="module")
def blackscholes():
    config = MachineConfig.small()
    return config, build_trace(get_profile("BLACKSCHOLES"), config, scale=0.2, seed=1)


def _calls_per_miss(engine, traces) -> float:
    root = os.path.dirname(repro.__file__)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        stats = simulate(engine, traces, kernel="fast")
    finally:
        sys.setprofile(None)
    misses = stats.counters["l1i_misses"] + stats.counters["l1d_misses"]
    assert misses > 1000
    return calls / misses


@pytest.mark.parametrize("label", list(PINNED))
def test_calls_per_l1_miss_stay_pinned(blackscholes, label):
    config, traces = blackscholes
    kwargs, pinned = PINNED[label]
    per_miss = _calls_per_miss(make_scheme(label, config, **kwargs), traces)
    assert per_miss <= pinned, f"{label}: {per_miss:.2f} Python calls per L1 miss"
