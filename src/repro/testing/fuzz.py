"""Randomized-profile differential fuzzing of the simulation kernels.

The checked-in differential suite covers three hand-picked workload
regimes; this module generates *arbitrary* regimes from a seed — random
access mixes, patterns, working-set pressures, barrier counts, bursts,
schemes and machine parameters, plus occasional fractional compute gaps
(which flip the kernels into per-record Compute accumulation) — and runs
:func:`repro.testing.verify_all_kernels` over each.  A mismatch on any
fuzzed case is a kernel bug, and the case is fully described by its
integer seed: the failure bundle the CLI writes (profile parameters +
seed + scheme) reproduces the exact simulation anywhere.

Entrypoints::

    python -m repro testing verify-kernels --fuzz 25 --seed 7
    python -m repro testing verify-kernels --repro fuzz-failures/case-....json

The nightly CI (``.github/workflows/nightly-fuzz.yml``) runs the first
form over a fresh seed every night and uploads failure bundles as
artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.common.params import MachineConfig
from repro.schemes.factory import make_scheme
from repro.sim.kernel import kernel_names
from repro.sim.stats import SimStats
from repro.testing.differential import DifferentialMismatch, verify_all_kernels
from repro.workloads.benchmarks import BenchmarkProfile, build_trace
from repro.workloads.trace import CoreTrace, TraceSet

#: Schemes the fuzzer samples from (every engine family, several RTs,
#: plus the adaptive locality scheme).
FUZZ_SCHEMES = (
    "S-NUCA", "R-NUCA", "VR", "ASR", "RT-1", "RT-2", "RT-3", "RT-8", "Locality",
)

_PATTERNS = ("loop", "zipf", "stream")


#: Machine configurations a case can run on (recorded in repro bundles
#: so a failure found under one machine replays on the same machine).
MACHINES = {
    "tiny": MachineConfig.tiny,
    "small": MachineConfig.small,
}


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One randomized differential-verification case, derived from a seed."""

    case_seed: int
    scheme: str
    trace_seed: int
    fractional_gaps: bool
    profile: BenchmarkProfile
    machine: str = "tiny"

    def config(self) -> MachineConfig:
        return MACHINES[self.machine]()

    def describe(self) -> str:
        return (
            f"seed={self.case_seed} scheme={self.scheme} "
            f"machine={self.machine} trace_seed={self.trace_seed} "
            f"fractional_gaps={self.fractional_gaps} "
            f"profile={self.profile.name}"
        )

    def to_bundle(self) -> dict:
        """JSON-serializable repro bundle (profile JSON + seeds + machine)."""
        return {
            "case_seed": self.case_seed,
            "scheme": self.scheme,
            "machine": self.machine,
            "trace_seed": self.trace_seed,
            "fractional_gaps": self.fractional_gaps,
            "profile": dataclasses.asdict(self.profile),
        }

    @classmethod
    def from_bundle(cls, bundle: dict) -> "FuzzCase":
        return cls(
            case_seed=bundle["case_seed"],
            scheme=bundle["scheme"],
            trace_seed=bundle["trace_seed"],
            fractional_gaps=bundle["fractional_gaps"],
            profile=BenchmarkProfile(**bundle["profile"]),
            machine=bundle.get("machine", "tiny"),
        )


def replica_heavy_profile(rng: random.Random, name: str) -> BenchmarkProfile:
    """A randomized *replica-dominated* profile.

    The paper's headline mechanism: high-reuse shared-read working sets
    larger than the L1 but far smaller than the LLC, swept in long
    low-gap loops, so VR/ASR/locality schemes service most L1 misses
    from local replicas.  A slice of migratory and written-shared
    traffic keeps locality classifiers moving through promotions and
    demotions (and exercises writes through E/M replicas), so the fuzz
    crosses every replica-hit boundary event: true misses, upgrades,
    invalidations, reuse saturation and classifier demotion.
    """
    f_ifetch = rng.choice((0.0, 0.05, 0.15))
    f_migratory = rng.choice((0.0, 0.1, 0.2))
    f_shared_rw = rng.choice((0.05, 0.15))
    f_private = rng.choice((0.0, 0.1))
    f_shared_ro = 1.0 - f_ifetch - f_migratory - f_shared_rw - f_private
    return BenchmarkProfile(
        name=name,
        description="randomized replica-dominated differential-fuzz profile",
        f_ifetch=f_ifetch,
        f_private=f_private,
        f_shared_ro=f_shared_ro,
        f_shared_rw=f_shared_rw,
        f_migratory=f_migratory,
        private_pattern="loop",
        shared_ro_pattern=rng.choice(("loop", "zipf")),
        shared_rw_pattern="loop",
        instr_ws_x_l1i=rng.choice((0.5, 2.0)),
        private_ws_x_l1d=0.4,
        # Shared-RO working set overflows the L1 (forcing LLC traffic)
        # but sits well inside the LLC (so replicas survive and re-hit).
        shared_ro_ws_x_l1d=rng.choice((1.5, 2.5, 4.0)),
        shared_rw_ws_x_l1d=rng.choice((0.5, 1.5)),
        migratory_window_x_l1d=0.5,
        private_burst=rng.choice((4, 16)),
        shared_rw_partitioned=False,
        write_frac_rw=rng.choice((0.05, 0.3)),
        zipf_skew=2.5,
        false_sharing=rng.random() < 0.15,
        mean_gap=rng.choice((0.0, 0.0, 1.0)),
        accesses_per_core=rng.randrange(400, 1200),
        barriers=rng.choice((0, 1, 3)),
    )


def random_profile(rng: random.Random, name: str) -> BenchmarkProfile:
    """A valid random :class:`BenchmarkProfile` spanning regime space.

    Roughly a third of the cases draw from the replica-dominated
    sub-generator (:func:`replica_heavy_profile`), keeping the nightly
    fuzz pointed at the local-replica batching fast path.
    """
    if rng.random() < 0.35:
        return replica_heavy_profile(rng, name)
    f_ifetch = rng.choice((0.0, 0.02, 0.1, 0.2))
    f_migratory = rng.choice((0.0, 0.0, 0.0, 0.3, 0.5))
    weights = [rng.random() + 0.05 for _ in range(3)]
    remaining = 1.0 - f_ifetch - f_migratory
    scale = remaining / sum(weights)
    f_private, f_shared_ro, f_shared_rw = (weight * scale for weight in weights)
    return BenchmarkProfile(
        name=name,
        description="randomized differential-fuzz profile",
        f_ifetch=f_ifetch,
        f_private=f_private,
        f_shared_ro=f_shared_ro,
        f_shared_rw=f_shared_rw,
        f_migratory=f_migratory,
        private_pattern=rng.choice(_PATTERNS),
        shared_ro_pattern=rng.choice(_PATTERNS),
        shared_rw_pattern=rng.choice(_PATTERNS),
        instr_ws_x_l1i=rng.choice((0.3, 0.5, 2.0)),
        private_ws_x_l1d=rng.choice((0.4, 1.0, 2.5)),
        shared_ro_ws_x_l1d=rng.choice((0.5, 2.0, 6.0)),
        shared_rw_ws_x_l1d=rng.choice((0.5, 2.0, 6.0)),
        shared_ro_ws_x_llc=rng.choice((None, None, 0.6)),
        shared_rw_ws_x_llc=rng.choice((None, None, 1.2)),
        migratory_window_x_l1d=rng.choice((0.5, 1.5)),
        private_burst=rng.choice((1, 3, 12)),
        shared_rw_partitioned=rng.random() < 0.3,
        write_frac_rw=rng.choice((0.0, 0.05, 0.3)),
        zipf_skew=rng.choice((1.5, 2.5, 3.5)),
        false_sharing=rng.random() < 0.2,
        mean_gap=rng.choice((0.0, 1.0, 4.0)),
        accesses_per_core=rng.randrange(200, 900),
        barriers=rng.choice((0, 1, 2, 5)),
    )


def make_case(case_seed: int, machine: str = "tiny") -> FuzzCase:
    """Deterministically derive a full fuzz case from one integer seed."""
    rng = random.Random(case_seed)
    return FuzzCase(
        case_seed=case_seed,
        scheme=rng.choice(FUZZ_SCHEMES),
        trace_seed=rng.randrange(1 << 20),
        # Occasionally exercise the fractional-gap path, where kernels
        # must reproduce the reference's per-record Compute accumulation
        # order instead of batching the (then order-sensitive) float sum.
        fractional_gaps=rng.random() < 0.25,
        profile=random_profile(rng, name=f"FUZZ-{case_seed}"),
        machine=machine,
    )


def iter_cases(count: int, seed: int, machine: str = "tiny") -> Iterator[FuzzCase]:
    """``count`` cases derived from a base seed (stable across runs)."""
    for index in range(count):
        yield make_case(seed + index, machine=machine)


def _with_fractional_gaps(traces: TraceSet) -> TraceSet:
    """Offset every gap by half a cycle to force the non-integral path.

    The offset (rather than e.g. halving, which leaves even/zero gaps
    integral) guarantees every core's gaps are fractional, so a flagged
    case always exercises the per-record Compute accumulation path.
    """
    cores = [
        CoreTrace(trace.types, trace.lines, trace.gaps.astype(np.float64) + 0.5)
        for trace in traces.cores
    ]
    return TraceSet(traces.name, cores, traces.regions)


def build_case_traces(case: FuzzCase, config: MachineConfig) -> TraceSet:
    traces = build_trace(case.profile, config, scale=1.0, seed=case.trace_seed)
    if case.fractional_gaps:
        traces = _with_fractional_gaps(traces)
    return traces


def run_case(
    case: FuzzCase,
    config: MachineConfig | None = None,
    kernels: Iterable[str] | None = None,
) -> SimStats:
    """Differentially verify one case across ``kernels`` (default: all).

    Raises :class:`DifferentialMismatch` (with the first cycle-stamped
    divergent field localized) on any disagreement.
    """
    machine = config if config is not None else case.config()
    traces = build_case_traces(case, machine)
    return verify_all_kernels(
        lambda: make_scheme(case.scheme, machine),
        traces,
        candidates=kernels,
        context=case.describe(),
    )


@dataclasses.dataclass
class FuzzReport:
    """Outcome of a fuzzing session."""

    passed: list[FuzzCase] = dataclasses.field(default_factory=list)
    failed: list[tuple[FuzzCase, DifferentialMismatch]] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        lines = [f"fuzz: {len(self.passed)} passed, {len(self.failed)} failed"]
        for case, error in self.failed:
            first_line = str(error).splitlines()[0]
            lines.append(f"  FAIL {case.describe()}: {first_line}")
        return "\n".join(lines)


def write_bundle(case: FuzzCase, error: DifferentialMismatch, out_dir: Path) -> Path:
    """Write a failure's repro bundle; returns the bundle path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = case.to_bundle()
    bundle["error"] = str(error)
    target = out_dir / f"case-{case.case_seed}.json"
    with target.open("w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def csv_roundtrip_case(case: FuzzCase, workdir: Path) -> Path:
    """Round-trip one case's synthetic TraceSet through the CSV
    interchange format (:mod:`repro.workloads.imports`) and assert the
    per-core arrays survive exactly.

    The fuzzed profile space (mixes, patterns, pressures, barriers,
    bursts) stresses the exporter/importer far beyond the fixture
    captures: every record's (type, line, gap) must reconstruct
    bit-for-bit from the ``core,tick,type,line`` text encoding, and the
    re-imported set's *inferred* region map must still cover every
    access (``validate_coverage``).  Gaps stay integral on purpose —
    ticks are integer cumulative gaps, so fractional-gap traces are not
    CSV-representable (the bundled ``.npz`` format carries those).

    Returns the intermediate capture's path (so the caller owns its
    cleanup); raises ``AssertionError`` (or the importer's
    ``TraceImportError``) on any divergence.
    """
    from repro.workloads.imports import export_csv, import_trace

    traces = build_trace(case.profile, case.config(), scale=1.0,
                         seed=case.trace_seed)
    path = export_csv(traces, workdir / f"case-{case.case_seed}.csv.gz")
    back = import_trace(path, fmt="csv")
    assert back.num_cores == traces.num_cores, (
        f"core count changed: {traces.num_cores} -> {back.num_cores}"
    )
    for core, (original, restored) in enumerate(zip(traces.cores, back.cores)):
        for field in ("types", "lines", "gaps"):
            a = getattr(original, field)
            b = getattr(restored, field)
            assert np.array_equal(a, b), (
                f"core {core} {field} diverged after CSV round-trip "
                f"({case.describe()})"
            )
    back.validate_coverage()
    return path


def run_csv_roundtrip_fuzz(
    count: int,
    seed: int,
    workdir: Path,
    machine: str = "tiny",
    log=None,
) -> list[str]:
    """Round-trip ``count`` randomized TraceSets through CSV; returns
    the failure descriptions (empty = all exact).

    A passing case's intermediate ``.csv.gz`` is deleted; a failing
    case's is kept in ``workdir`` next to a ``case-<seed>.error`` note,
    so the nightly job can upload exactly the diverging captures as
    repro artifacts (the case itself also replays from its seed alone).
    """
    failures: list[str] = []
    workdir.mkdir(parents=True, exist_ok=True)
    for case in iter_cases(count, seed, machine=machine):
        try:
            capture = csv_roundtrip_case(case, workdir)
        except (AssertionError, ValueError) as error:
            failures.append(f"{case.describe()}: {error}")
            (workdir / f"case-{case.case_seed}.error").write_text(
                f"{case.describe()}\n{error}\n"
            )
            if log:
                log(f"FAIL csv-roundtrip {case.describe()}: {error}")
        else:
            capture.unlink(missing_ok=True)
            if log:
                log(f"ok   csv-roundtrip {case.describe()}")
    return failures


def run_fuzz(
    count: int,
    seed: int,
    machine: str = "tiny",
    kernels: Iterable[str] | None = None,
    out_dir: Path | None = None,
    log=None,
) -> FuzzReport:
    """Run ``count`` randomized cases; collect (and optionally bundle)
    every mismatch instead of stopping at the first."""
    kernel_list = list(kernels) if kernels is not None else [
        name for name in kernel_names() if name != "reference"
    ]
    report = FuzzReport()
    for case in iter_cases(count, seed, machine=machine):
        try:
            stats = run_case(case, kernels=kernel_list)
        except DifferentialMismatch as error:
            report.failed.append((case, error))
            if out_dir is not None:
                bundle = write_bundle(case, error, out_dir)
                if log:
                    log(f"FAIL {case.describe()} -> {bundle}")
            elif log:
                log(f"FAIL {case.describe()}")
        else:
            report.passed.append(case)
            if log:
                log(
                    f"ok   {case.describe()} "
                    f"(completion={stats.completion_time:.0f}, "
                    f"l1_misses={stats.l1_misses()})"
                )
    return report
