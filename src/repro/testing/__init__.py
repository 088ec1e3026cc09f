"""Verification subsystem: differential, golden-snapshot and metamorphic checks.

Cache-policy conclusions are only trustworthy when the evaluation
substrate is itself verified, so the simulator's optimized fast path
ships with the machinery to prove it correct:

* :mod:`repro.testing.differential` — run simulation kernels over the
  same (engine, trace) pair and diff the **full**
  :class:`~repro.sim.stats.SimStats` (counters, energy events, latency
  buckets, miss statuses, per-core finish times, completion time).  The
  optimized fast kernel is only allowed to exist because this harness
  shows it bit-identical to the reference loop; on a
  mismatch it bisects to the first cycle-stamped divergent stat field.

* :mod:`repro.testing.fuzz` — randomized benchmark profiles for
  differential fuzzing beyond the checked-in workloads; drives
  :func:`verify_all_kernels` from the ``python -m repro testing
  verify-kernels --fuzz N`` CLI, which the nightly CI schedules and
  whose failure bundles reproduce locally via ``--repro``.

* :mod:`repro.testing.golden` — a JSON golden-snapshot store with a
  regeneration flag (``REPRO_REGOLD=1``), so headline paper numbers are
  pinned and refactors cannot silently drift them.

* :mod:`repro.testing.metamorphic` — invariance checks that need no
  golden at all: permuting equal-time events, growing the workload
  scale, and padding the barrier count must transform results in known
  ways.
"""

from repro.testing.differential import (
    DifferentialMismatch,
    FirstDivergence,
    StatsDiff,
    assert_stats_equal,
    diff_kernels,
    locate_first_divergence,
    stats_diff,
    truncated_traces,
    verify_all_kernels,
    verify_kernels,
)
from repro.testing.golden import GoldenMismatch, GoldenStore
from repro.testing.metamorphic import (
    check_barrier_count_invariance,
    check_equal_time_permutation,
    check_scale_monotonicity,
    with_prepended_barriers,
)

__all__ = [
    "DifferentialMismatch",
    "FirstDivergence",
    "GoldenMismatch",
    "GoldenStore",
    "StatsDiff",
    "assert_stats_equal",
    "check_barrier_count_invariance",
    "check_equal_time_permutation",
    "check_scale_monotonicity",
    "diff_kernels",
    "locate_first_divergence",
    "stats_diff",
    "truncated_traces",
    "verify_all_kernels",
    "verify_kernels",
    "with_prepended_barriers",
]
