"""Parallel experiment execution across worker processes.

The simulator is single-threaded pure Python; a full figure matrix is
hundreds of independent (scheme, benchmark, config) runs, so process
pools give near-linear speedups.  Workers rebuild traces from the
(benchmark, scale, seed) triple — trace generation is deterministic and
cheap relative to simulation, so nothing large crosses the process
boundary except the result statistics.

The parallel path executes the same
:class:`~repro.experiments.spec.ExperimentSpec` grids the sequential
executor does: :func:`execute_spec_parallel` checks the
:class:`~repro.experiments.store.ResultStore` first
(:func:`scan_spec_misses`), fans only the *missed* RunPoints out as
picklable :class:`RunSpec` units, and reduces ASR's replication-level
search on collection — identical semantics and bit-identical results.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING, Iterable

from repro.common.params import MachineConfig
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentSetup, RunResult, run_one

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec, RunPoint
    from repro.experiments.store import ResultStore


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described by picklable values."""

    scheme: str
    benchmark: str
    config: MachineConfig
    scale: float
    seed: int
    #: Extra scheme-constructor arguments (must be picklable).
    scheme_kwargs: tuple = ()
    #: Simulation kernel selection (None → environment → default).
    kernel: str | None = None

    def kwargs(self) -> dict:
        return dict(self.scheme_kwargs)


def _execute(spec: RunSpec) -> RunResult:
    """Worker entry point: rebuild the setup and run one simulation."""
    setup = ExperimentSetup(
        spec.config, scale=spec.scale, seed=spec.seed, kernel=spec.kernel
    )
    return run_one(setup, spec.scheme, spec.benchmark, **spec.kwargs())


def run_specs(
    specs: Iterable[RunSpec], max_workers: int | None = None
) -> list[RunResult]:
    """Run the specs across a process pool, preserving order.

    ``max_workers=1`` (or a single spec) short-circuits to in-process
    execution, which keeps debugging and coverage tooling simple.
    """
    spec_list = list(specs)
    results: list = [None] * len(spec_list)
    for position, result in _completed(list(enumerate(spec_list)), max_workers):
        results[position] = result
    return results


def _completed(work: "list[tuple]", max_workers: int | None):
    """Run ``(tag, RunSpec)`` pairs, dispatched in order, and yield
    ``(tag, result)`` as each one finishes.  A spec that raised
    re-raises once every other spec has been yielded."""
    if max_workers is None:
        max_workers = min(len(work), os.cpu_count() or 1)
    if max_workers <= 1 or len(work) <= 1:
        for tag, spec in work:
            yield tag, _execute(spec)
        return
    errors = []
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {pool.submit(_execute, spec): tag for tag, spec in work}
        for future in as_completed(futures):
            error = future.exception()
            if error is None:
                yield futures[future], future.result()
            else:
                errors.append(error)
    if errors:
        raise errors[0]


def _edp(result: RunResult) -> float:
    return result.total_energy * result.completion_time


def point_run_specs(
    point: "RunPoint", setup: ExperimentSetup
) -> list[RunSpec]:
    """The picklable RunSpec expansion of one RunPoint.

    Most points map to one RunSpec; an ASR point without an explicit
    replication level expands into one spec per level (the lowest-EDP
    result is kept on collection — identical to the sequential search).
    """
    config = point.effective_config(setup.config)
    scale = point.scale if point.scale is not None else setup.scale
    seed = point.seed if point.seed is not None else setup.seed
    kernel = point.kernel if point.kernel is not None else setup.kernel
    kwargs = point.scheme_kwargs
    if point.scheme == "ASR" and "replication_level" not in dict(kwargs):
        return [
            RunSpec(
                point.scheme, point.benchmark, config, scale, seed,
                scheme_kwargs=kwargs + (("replication_level", level),),
                kernel=kernel,
            )
            for level in setup.asr_levels
        ]
    return [
        RunSpec(
            point.scheme, point.benchmark, config, scale, seed,
            scheme_kwargs=kwargs, kernel=kernel,
        )
    ]


def scan_spec_misses(
    spec: "ExperimentSpec",
    setup: ExperimentSetup,
    store: "ResultStore",
) -> "tuple[dict, list[tuple[str, list]]]":
    """Split a spec into store-served results and missed point groups.

    Returns ``(results, missed)`` where ``results`` maps store-served
    RunPoints to their results and ``missed`` lists, in first-appearance
    order, ``(content address, [points sharing it])`` for every address
    that has to be simulated.  Duplicate same-address points are counted
    as hits up front (mirroring the sequential path, which would hit
    once the first of them is stored), so the process pool's accounting
    is identical to the sequential executor's.
    """
    results: dict = {}
    order: list[str] = []
    groups: dict = {}
    for point in spec.points:
        key = store.key_for(point.fingerprint(setup))
        if key in groups:
            # Same content address already pending: don't simulate it
            # twice (mirrors the sequential path, which would hit here).
            groups[key].append(point)
            store.record_hit()
            continue
        cached = store.get(key)
        if cached is not None:
            results[point] = cached
            continue
        groups[key] = [point]
        order.append(key)
    return results, [(key, groups[key]) for key in order]


def execute_spec_parallel(
    spec: "ExperimentSpec",
    setup: ExperimentSetup,
    store: "ResultStore",
    max_workers: int | None = None,
) -> ResultSet:
    """Parallel twin of :func:`repro.experiments.spec.execute_spec`.

    Stored results are served without simulating; only the missed points
    are sharded across the pool, and each point's result is written to
    the store as soon as all of its specs are in, so a run that dies
    part-way keeps the points it finished.
    """
    results, missed = scan_spec_misses(spec, setup, store)
    expansions = [point_run_specs(points[0], setup) for _key, points in missed]
    outputs = [[None] * len(expansion) for expansion in expansions]
    work = [((index, slot), run_spec) for index, expansion in enumerate(expansions)
            for slot, run_spec in enumerate(expansion)]
    for (index, slot), result in _completed(work, max_workers):
        outputs[index][slot] = result
        if None not in outputs[index]:
            # An ASR search keeps its lowest-EDP level (first on ties).
            best = min(outputs[index], key=_edp)
            key, points = missed[index]
            store.put(key, best)
            for shared_point in points:
                results[shared_point] = best

    # Preserve the spec's point order in the result set.
    ordered = {point: results[point] for point in spec.points}
    return ResultSet.from_spec(spec, ordered)
