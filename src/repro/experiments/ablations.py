"""Design-choice ablations the paper reports in prose.

* **LLC replacement policy** (Section 4.2): the modified-LRU policy
  (fewest L1 copies first) vs. classic LRU, under the locality-aware
  protocol at RT = 3.  The paper sees 15%/5% energy and 5%/2% completion
  improvements on BLACKSCHOLES and FACESIM and parity elsewhere.

* **Temporal Locality Hints** (Section 2.2.4): the prior approach the
  modified-LRU replaces — plain LRU refreshed by periodic L1-hit hint
  messages — matches its quality but pays network traffic for it.

* **Dynamic-oracle local lookup** (Section 2.3.2): an oracle that skips
  the local LLC slice probe whenever no replica is present.  The paper
  measured < 1% difference, justifying the always-probe design; we
  regenerate that comparison.

* **Replica creation strategy** (Section 2.3.1): restricting replicas to
  the Shared state is simpler but loses migratory shared data (LU-NC),
  which needs E/M replicas.

* **Classifier organization** (Section 2.3.3): the in-cache classifier
  vs a decoupled sparse side table, which trades storage for a second
  CAM lookup and for classifier state lost on side-table eviction.

Each ablation is one :class:`ExperimentSpec` — labeled RunPoints over
the RT-3 scheme with config overrides or scheme kwargs — executed by
the shared spec executor (trace reuse, result reuse).
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.reporting import format_table
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentSetup
from repro.experiments.spec import (
    ExperimentSpec,
    RunPoint,
    execute_spec,
    register_experiment,
    resolve_benchmarks,
)
from repro.experiments.store import ResultStore

ABLATION_BENCHMARKS = ("BLACKSCHOLES", "FACESIM", "BARNES", "DEDUP")


# ---------------------------------------------------------------------------
# LLC replacement policy (Section 4.2)
# ---------------------------------------------------------------------------

def replacement_spec(
    setup: ExperimentSetup, benchmarks: Iterable[str] | None = None
) -> ExperimentSpec:
    bench_list = resolve_benchmarks(benchmarks, ABLATION_BENCHMARKS)
    points = tuple(
        RunPoint(
            "RT-3", benchmark,
            config_overrides=(("llc_modified_lru", modified),),
            label=label,
        )
        for benchmark in bench_list
        for label, modified in (("modified_lru", True), ("lru", False))
    )
    return ExperimentSpec(
        "replacement", points,
        title="Section 4.2: modified-LRU vs LRU LLC replacement",
        baseline="lru",
    )


def run_replacement_ablation(
    setup: ExperimentSetup,
    benchmarks: Iterable[str] | None = None,
    store: ResultStore | None = None,
) -> ResultSet:
    """``results[benchmark][policy]`` with policy in {modified_lru, lru}."""
    return execute_spec(replacement_spec(setup, benchmarks), setup, store=store)


def render_replacement_ablation(results) -> str:
    rows = []
    for benchmark, row in results.items():
        modified, plain = row["modified_lru"], row["lru"]
        rows.append([
            benchmark,
            modified.total_energy / plain.total_energy,
            modified.completion_time / plain.completion_time,
        ])
    return format_table(
        ["Benchmark", "Energy (mod-LRU / LRU)", "Time (mod-LRU / LRU)"],
        rows,
        title="Section 4.2: modified-LRU vs LRU LLC replacement (RT-3)",
    )


# ---------------------------------------------------------------------------
# Dynamic-oracle local lookup (Section 2.3.2)
# ---------------------------------------------------------------------------

def oracle_spec(
    setup: ExperimentSetup, benchmarks: Iterable[str] | None = None
) -> ExperimentSpec:
    bench_list = resolve_benchmarks(benchmarks, ABLATION_BENCHMARKS)
    points = tuple(
        point
        for benchmark in bench_list
        for point in (
            RunPoint("RT-3", benchmark, label="probe"),
            RunPoint(
                "RT-3", benchmark,
                scheme_kwargs=(("oracle_lookup", True),), label="oracle",
            ),
        )
    )
    return ExperimentSpec(
        "oracle", points,
        title="Section 2.3.2: always-probe vs dynamic-oracle local lookup",
        baseline="oracle",
    )


def run_oracle_ablation(
    setup: ExperimentSetup,
    benchmarks: Iterable[str] | None = None,
    store: ResultStore | None = None,
) -> ResultSet:
    """``results[benchmark][mode]`` with mode in {probe, oracle}."""
    return execute_spec(oracle_spec(setup, benchmarks), setup, store=store)


def render_oracle_ablation(results) -> str:
    rows = []
    for benchmark, row in results.items():
        probe, oracle = row["probe"], row["oracle"]
        rows.append([
            benchmark,
            probe.total_energy / oracle.total_energy,
            probe.completion_time / oracle.completion_time,
        ])
    return format_table(
        ["Benchmark", "Energy (probe / oracle)", "Time (probe / oracle)"],
        rows,
        title="Section 2.3.2: always-probe vs dynamic-oracle local lookup (RT-3)",
    )


# ---------------------------------------------------------------------------
# Temporal Locality Hints (Section 2.2.4's rejected alternative)
# ---------------------------------------------------------------------------

def tla_spec(
    setup: ExperimentSetup, benchmarks: Iterable[str] | None = None
) -> ExperimentSpec:
    bench_list = resolve_benchmarks(benchmarks, ABLATION_BENCHMARKS)
    variants = (
        ("modified_lru", (("llc_modified_lru", True),)),
        ("lru", (("llc_modified_lru", False),)),
        ("tla", (("tla_hints", True),)),
    )
    points = tuple(
        RunPoint("RT-3", benchmark, config_overrides=overrides, label=label)
        for benchmark in bench_list
        for label, overrides in variants
    )
    return ExperimentSpec(
        "tla", points,
        title="Section 2.2.4: modified-LRU vs Temporal Locality Hints",
        baseline="lru",
    )


def run_tla_ablation(
    setup: ExperimentSetup,
    benchmarks: Iterable[str] | None = None,
    store: ResultStore | None = None,
) -> ResultSet:
    """``results[benchmark][variant]`` over {modified_lru, lru, tla}."""
    return execute_spec(tla_spec(setup, benchmarks), setup, store=store)


def render_tla_ablation(results) -> str:
    rows = []
    for benchmark, row in results.items():
        base = row["lru"]
        rows.append([
            benchmark,
            row["modified_lru"].total_energy / base.total_energy,
            row["tla"].total_energy / base.total_energy,
            float(row["tla"].stats.counters.get("tla_hints_sent", 0)),
        ])
    return format_table(
        ["Benchmark", "mod-LRU energy / LRU", "TLA energy / LRU", "TLA hint msgs"],
        rows,
        title="Section 2.2.4: modified-LRU vs Temporal Locality Hints (RT-3)",
        float_format="{:.3f}",
    )


# ---------------------------------------------------------------------------
# Replica creation strategy (Section 2.3.1)
# ---------------------------------------------------------------------------

STRATEGY_BENCHMARKS = ("LU-NC", "BARNES", "STREAMCLUSTER", "PATRICIA")


def replica_strategy_spec(
    setup: ExperimentSetup, benchmarks: Iterable[str] | None = None
) -> ExperimentSpec:
    bench_list = resolve_benchmarks(benchmarks, STRATEGY_BENCHMARKS)
    points = tuple(
        point
        for benchmark in bench_list
        for point in (
            RunPoint("RT-3", benchmark, label="all_states"),
            RunPoint(
                "RT-3", benchmark,
                scheme_kwargs=(("shared_only_replicas", True),),
                label="shared_only",
            ),
        )
    )
    return ExperimentSpec(
        "strategy", points,
        title="Section 2.3.1: Shared-only vs all-state replica creation",
        baseline="all_states",
    )


def run_replica_strategy_ablation(
    setup: ExperimentSetup,
    benchmarks: Iterable[str] | None = None,
    store: ResultStore | None = None,
) -> ResultSet:
    """``results[benchmark][strategy]`` over {all_states, shared_only}."""
    return execute_spec(replica_strategy_spec(setup, benchmarks), setup, store=store)


def render_replica_strategy_ablation(results) -> str:
    rows = []
    for benchmark, row in results.items():
        full, shared = row["all_states"], row["shared_only"]
        rows.append([
            benchmark,
            shared.total_energy / full.total_energy,
            shared.completion_time / full.completion_time,
            float(full.stats.counters.get("replicas_created", 0)),
            float(shared.stats.counters.get("replicas_created", 0)),
        ])
    return format_table(
        ["Benchmark", "Energy (S-only / all)", "Time (S-only / all)",
         "Replicas (all)", "Replicas (S-only)"],
        rows,
        title="Section 2.3.1: Shared-only vs all-state replica creation (RT-3)",
        float_format="{:.3f}",
    )


# ---------------------------------------------------------------------------
# Classifier organization (Section 2.3.3)
# ---------------------------------------------------------------------------

ORGANIZATION_BENCHMARKS = ("BARNES", "STREAMCLUSTER", "DEDUP")


def classifier_organization_spec(
    setup: ExperimentSetup,
    benchmarks: Iterable[str] | None = None,
    sparse_entries: Iterable[int] = (64, 256, 1024),
) -> ExperimentSpec:
    bench_list = resolve_benchmarks(benchmarks, ORGANIZATION_BENCHMARKS)
    entries_list = list(sparse_entries)
    points = []
    for benchmark in bench_list:
        points.append(RunPoint("RT-3", benchmark, label="incache"))
        for entries in entries_list:
            points.append(RunPoint(
                "RT-3", benchmark,
                config_overrides=(
                    ("classifier_organization", "sparse"),
                    ("sparse_classifier_entries", entries),
                ),
                label=f"sparse-{entries}",
            ))
    return ExperimentSpec(
        "organization", tuple(points),
        title="Section 2.3.3: in-cache vs sparse classifier organization",
        baseline="incache",
    )


def run_classifier_organization_ablation(
    setup: ExperimentSetup,
    benchmarks: Iterable[str] | None = None,
    sparse_entries: Iterable[int] = (64, 256, 1024),
    store: ResultStore | None = None,
) -> ResultSet:
    """``results[benchmark][org]`` over in-cache and sparse capacities."""
    spec = classifier_organization_spec(setup, benchmarks, sparse_entries)
    return execute_spec(spec, setup, store=store)


def render_classifier_organization_ablation(results) -> str:
    results = ResultSet.ensure(results)
    table = results.normalized_to("incache", "total_energy")
    labels = results.labels()
    rows = [
        [benchmark, *[row[label] for label in labels]]
        for benchmark, row in table.items()
    ]
    return format_table(
        ["Benchmark", *[f"{label} energy" for label in labels]],
        rows,
        title="Section 2.3.3: in-cache vs sparse classifier organization (RT-3)",
    )


# ---------------------------------------------------------------------------
# Registered commands
# ---------------------------------------------------------------------------

register_experiment(
    "replacement", "Ablation: modified-LRU vs plain LRU LLC replacement",
    lambda results, setup: render_replacement_ablation(results),
)(replacement_spec)
register_experiment(
    "oracle", "Ablation: always-probe vs dynamic-oracle local lookup",
    lambda results, setup: render_oracle_ablation(results),
)(oracle_spec)
register_experiment(
    "tla", "Ablation: modified-LRU vs Temporal Locality Hints",
    lambda results, setup: render_tla_ablation(results),
)(tla_spec)
register_experiment(
    "strategy", "Ablation: Shared-only vs all-state replica creation",
    lambda results, setup: render_replica_strategy_ablation(results),
)(replica_strategy_spec)
register_experiment(
    "organization", "Ablation: in-cache vs sparse classifier organization",
    lambda results, setup: render_classifier_organization_ablation(results),
)(classifier_organization_spec)
