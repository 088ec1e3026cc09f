"""Running a grid's simulations, in this process or over a process pool.

:func:`repro.experiments.spec.execute_spec` expands every RunPoint the
store missed into picklable :class:`RunSpec` units and hands them to
:func:`completed_runs`, which runs them here when ``max_workers <= 1``
and on a process pool otherwise, yielding each result as it finishes.

The simulator is single-threaded pure Python and every run is
independent, so a pool gives near-linear speedups.  A run needs its
(benchmark, machine, scale, seed) trace: in-process runs use the
caller's :class:`~repro.experiments.runner.ExperimentSetup` and its
trace cache; a pool worker keeps its own setups, so it builds each trace
at most once however many of its runs share it.  Trace generation is
deterministic, so nothing large crosses the process boundary except the
result statistics.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING

from repro.common.params import MachineConfig
from repro.experiments.runner import ExperimentSetup, RunResult
from repro.schemes.factory import make_scheme
from repro.sim.simulator import simulate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunPoint


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One simulation, fully described by picklable values.

    ``point`` runs on the benchmark's trace for ``config`` (the setup's
    machine) at ``scale`` and ``seed``; its scheme sees ``config`` with
    the point's overrides applied.  An ASR point here always names its
    replication level.
    """

    point: "RunPoint"
    config: MachineConfig
    scale: float
    seed: int

    def run(self, setup: ExperimentSetup) -> RunResult:
        """Simulate on ``setup``'s trace, which must be this spec's."""
        point = self.point
        kwargs = dict(point.scheme_kwargs)
        engine = make_scheme(
            point.scheme, point.effective_config(self.config), **kwargs
        )
        stats = simulate(engine, setup.trace_for(point.benchmark))
        breakdown = stats.energy_breakdown(engine.energy_model())
        level = kwargs.get("replication_level") if point.scheme == "ASR" else None
        return RunResult(
            point.scheme, point.benchmark, stats, breakdown, asr_level=level
        )


#: A pool worker's setups by (machine, scale, seed), kept for the
#: worker's life, which is one pool's.  Only pool workers fill it:
#: in-process runs pass a dict that lives for one call.
_worker_setups: dict = {}


def _execute(spec: RunSpec, setups: dict = _worker_setups) -> RunResult:
    """Run one spec on the setup for its trace, made on first use."""
    key = (spec.config, spec.scale, spec.seed)
    setup = setups.get(key)
    if setup is None:
        setup = setups[key] = ExperimentSetup(
            spec.config, scale=spec.scale, seed=spec.seed
        )
    return spec.run(setup)


def completed_runs(
    work: "list[tuple]", setup: ExperimentSetup, max_workers: "int | None"
):
    """Run ``(tag, RunSpec)`` pairs, dispatched in order, and yield
    ``(tag, result)`` as each one finishes.

    With ``max_workers <= 1`` (or one spec) they run here on ``setup``,
    or on a setup derived from it for another scale or seed, and an
    error raises at once.  Otherwise they run on a pool of
    ``max_workers`` processes, and a spec that raised re-raises once
    every other spec has been yielded.
    """
    if not max_workers or max_workers <= 1 or len(work) <= 1:
        setups = {(setup.config, setup.scale, setup.seed): setup}
        for tag, spec in work:
            yield tag, _execute(spec, setups)
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
