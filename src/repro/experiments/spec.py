"""Declarative experiment API: RunPoints, ExperimentSpecs and the registry.

The paper's evaluation is one large grid — (scheme × benchmark ×
machine-knob) matrices feeding every figure — so the experiment layer
describes each figure as data instead of bespoke loops:

* :class:`RunPoint` — one frozen, hashable simulation coordinate:
  scheme label, benchmark, machine-config overrides, scheme keyword
  arguments, and optional per-point scale/seed overrides.
* :class:`ExperimentSpec` — a named grid of RunPoints plus presentation
  metadata (title, normalization baseline).  Every figure module builds
  one (``comparison_spec``, ``fig9_spec``, …).
* :func:`execute_spec` — the one grid executor.  It resolves each
  point against an :class:`~repro.experiments.runner.ExperimentSetup`,
  checks the content-addressed
  :class:`~repro.experiments.store.ResultStore`, expands each missed
  point into picklable :class:`~repro.experiments.parallel.RunSpec`
  runs (an ASR point without a level becomes one per level), runs them
  in-process or, with ``max_workers > 1``, over a process pool, keeps
  each point's lowest-EDP run and stores it as soon as its runs are in.
  It returns a queryable :class:`~repro.experiments.results.ResultSet`.
  Several hosts split a grid by running disjoint ``--benchmarks``
  subsets into one shared store directory; no other executor exists.
* the **registry** — ``@register_experiment`` / ``@register_report``
  bind CLI command names to spec builders (or plain report callables);
  ``python -m repro experiments`` generates its subcommands and
  ``--list`` output from it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Mapping, Sequence

from repro.experiments.parallel import RunSpec, completed_runs
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentSetup, RunResult
from repro.experiments.store import ResultStore
from repro.workloads.benchmarks import BENCHMARKS, BENCHMARK_ORDER
from repro.workloads.imports import (
    IMPORTED_PREFIX,
    imported_trace_path,
    is_imported_benchmark,
    trace_content_hash,
)


def _freeze(pairs) -> tuple:
    """Canonicalize a mapping / pair-iterable into a sorted tuple of pairs."""
    if isinstance(pairs, Mapping):
        items = pairs.items()
    else:
        items = tuple(pairs)
    return tuple(sorted((str(key), value) for key, value in items))


@dataclasses.dataclass(frozen=True)
class RunPoint:
    """One simulation coordinate: everything that determines its result.

    ``config_overrides`` are applied to the setup's machine configuration
    (``MachineConfig.with_overrides``); ``scheme_kwargs`` reach the
    scheme constructor.  Both accept dicts or pair-iterables and are
    canonicalized to sorted tuples, so equal points hash equally
    regardless of spelling order.  ``scale``/``seed`` of
    ``None`` inherit the executing setup's values.

    ``label`` is presentation-only (the column key in tables — e.g.
    ``"k=3"``, ``"C-4"``, an RT integer); it defaults to the scheme
    label and never enters the content address.
    """

    scheme: str
    benchmark: str
    config_overrides: tuple = ()
    scheme_kwargs: tuple = ()
    label: "str | int | None" = None
    scale: "float | None" = None
    seed: "int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "config_overrides", _freeze(self.config_overrides))
        object.__setattr__(self, "scheme_kwargs", _freeze(self.scheme_kwargs))

    @property
    def col_label(self) -> "str | int":
        return self.label if self.label is not None else self.scheme

    @property
    def searches_asr_level(self) -> bool:
        """An ASR point without an explicit replication level runs every
        level of the setup's search and keeps the best."""
        return (
            self.scheme == "ASR"
            and "replication_level" not in dict(self.scheme_kwargs)
        )

    def effective_config(self, base):
        """The setup's machine with this point's overrides applied."""
        if not self.config_overrides:
            return base
        return base.with_overrides(**dict(self.config_overrides))

    def fingerprint(self, setup: ExperimentSetup) -> dict:
        """The content-address payload: resolved (scheme, benchmark,
        effective machine config, scheme kwargs, scale, seed).

        An ASR point
        without an explicit replication level triggers the level
        *search*, so the setup's search space enters its address (a
        different ``asr_levels`` must not reuse the old best-of-search).
        """
        payload = {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "config": dataclasses.asdict(self.effective_config(setup.config)),
            "scheme_kwargs": [[key, value] for key, value in self.scheme_kwargs],
            "scale": self.scale if self.scale is not None else setup.scale,
            "seed": self.seed if self.seed is not None else setup.seed,
        }
        if is_imported_benchmark(self.benchmark):
            # Imported traces are addressed by file *content*, not path:
            # moving the .npz keeps its stored results valid, rewriting
            # it invalidates them.  Scale/seed shape only synthetic
            # generation, so they are pinned out of the address.
            path = imported_trace_path(self.benchmark)
            payload["benchmark"] = (
                f"{IMPORTED_PREFIX}sha256:{trace_content_hash(path)}"
            )
            payload["scale"] = None
            payload["seed"] = None
        if self.searches_asr_level:
            payload["asr_levels"] = list(setup.asr_levels)
        return payload

    def expand(self, setup: ExperimentSetup) -> list[RunSpec]:
        """The runs behind this point: one, or one per level of the
        setup's ASR search."""
        scale = self.scale if self.scale is not None else setup.scale
        seed = self.seed if self.seed is not None else setup.seed
        if not self.searches_asr_level:
            return [RunSpec(self, setup.config, scale, seed)]
        return [
            RunSpec(
                dataclasses.replace(
                    self,
                    scheme_kwargs=self.scheme_kwargs + (("replication_level", level),),
                ),
                setup.config, scale, seed,
            )
            for level in setup.asr_levels
        ]


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A named grid of RunPoints plus presentation metadata."""

    name: str
    points: tuple
    title: str = ""
    #: Column label tables normalize to (None: no canonical baseline).
    baseline: "str | int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    def benchmarks(self) -> tuple:
        seen: dict = {}
        for point in self.points:
            seen.setdefault(point.benchmark, None)
        return tuple(seen)

    def labels(self) -> tuple:
        seen: dict = {}
        for point in self.points:
            seen.setdefault(point.col_label, None)
        return tuple(seen)


def validate_benchmarks(names: Iterable[str]) -> list[str]:
    """Validate benchmark names up front, with the valid list on error.

    Besides the catalog names, ``imported:<path>`` names are accepted
    when the ``.npz`` trace archive behind them exists (see
    :mod:`repro.workloads.imports` and ``python -m repro trace import``).
    """
    names = list(names)
    unknown = []
    for name in names:
        if is_imported_benchmark(name):
            path = imported_trace_path(name)  # raises on an empty path
            if not path.is_file():
                raise ValueError(
                    f"imported trace archive {str(path)!r} does not exist "
                    f"(benchmark {name!r}); create it with "
                    f"'python -m repro trace import'"
                )
        elif name not in BENCHMARKS:
            unknown.append(name)
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {', '.join(map(repr, unknown))}; "
            f"valid names: {', '.join(BENCHMARK_ORDER)}, "
            f"or {IMPORTED_PREFIX}<path-to-npz>"
        )
    return names


def resolve_benchmarks(
    benchmarks: "Iterable[str] | None", default: Sequence[str]
) -> list[str]:
    """The validated benchmark list, or ``default`` when none was given."""
    if benchmarks is None:
        return list(default)
    return validate_benchmarks(benchmarks)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_spec(
    spec: ExperimentSpec,
    setup: ExperimentSetup,
    store: "ResultStore | None" = None,
    max_workers: int = 0,
) -> ResultSet:
    """Run every point of ``spec`` (reusing stored results) → ResultSet.

    With no ``store``, a fresh memory-only store still deduplicates
    identical points within the spec.  The runs of the missed points go
    in-process (``max_workers <= 1``) or over a pool of ``max_workers``
    processes; the results are the same either way, because simulation
    is deterministic and every run is independent.  Each point is stored
    as soon as all of its runs are in, so a run that dies part-way keeps
    the points it finished.
    """
    if store is None:
        store = ResultStore.memory()
    results, missed = _scan_misses(spec, setup, store)
    expansions = [points[0].expand(setup) for _key, points in missed]
    outputs = [[None] * len(expansion) for expansion in expansions]
    work = [((index, slot), run_spec) for index, expansion in enumerate(expansions)
            for slot, run_spec in enumerate(expansion)]
    for (index, slot), result in completed_runs(work, setup, max_workers):
        outputs[index][slot] = result
        if None not in outputs[index]:
            # Section 3.3: ASR keeps its lowest-EDP level (first on ties).
            best = min(outputs[index], key=_edp)
            key, points = missed[index]
            store.put(key, best)
            for shared_point in points:
                results[shared_point] = best
    return ResultSet.from_spec(spec, {point: results[point] for point in spec.points})


def _edp(result: RunResult) -> float:
    return result.total_energy * result.completion_time


def _scan_misses(
    spec: ExperimentSpec, setup: ExperimentSetup, store: ResultStore
) -> "tuple[dict, list[tuple[str, list]]]":
    """Split a spec into store-served results and missed point groups.

    Returns ``(results, missed)``: ``results`` maps store-served
    RunPoints to their results, and ``missed`` lists, in first-appearance
    order, ``(content address, [points sharing it])`` for every address
    that has to be simulated.  A point repeating a pending address counts
    as a hit, as it would if the first had been stored already.
    """
    results: dict = {}
    groups: dict = {}
    for point in spec.points:
        key = store.key_for(point.fingerprint(setup))
        if key in groups:
            groups[key].append(point)
            store.record_hit()
            continue
        cached = store.get(key)
        if cached is not None:
            results[point] = cached
            continue
        groups[key] = [point]
    return results, list(groups.items())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: A spec builder: (setup, benchmarks-or-None) -> ExperimentSpec.
SpecBuilder = Callable[[ExperimentSetup, "Sequence[str] | None"], ExperimentSpec]


@dataclasses.dataclass(frozen=True)
class ExperimentCommand:
    """One registered CLI command.

    ``build`` is the spec builder for grid commands (None for plain
    reports such as ``table1``); ``run`` executes the command end to end
    and returns the rendered text.
    """

    name: str
    description: str
    run: Callable[..., str]
    build: "SpecBuilder | None" = None

    @property
    def is_grid(self) -> bool:
        return self.build is not None


_REGISTRY: dict[str, ExperimentCommand] = {}


def register_experiment(
    name: str,
    description: str,
    render: Callable[[ResultSet, ExperimentSetup], str],
) -> Callable[[SpecBuilder], SpecBuilder]:
    """Register a grid experiment: a spec builder plus its renderer.

    The decorated builder keeps working as a plain function; the CLI
    gains a ``name`` subcommand that builds the spec, executes it
    against the shared ResultStore and prints ``render``'s output.
    """

    def decorate(build: SpecBuilder) -> SpecBuilder:
        def run(
            setup: ExperimentSetup,
            benchmarks: "Sequence[str] | None" = None,
            store: "ResultStore | None" = None,
            max_workers: int = 0,
        ) -> str:
            spec = build(setup, benchmarks)
            results = execute_spec(
                spec, setup, store=store, max_workers=max_workers
            )
            return render(results, setup)

        _register(ExperimentCommand(name, description, run, build))
        return build

    return decorate


def register_report(
    name: str, description: str
) -> Callable[[Callable], Callable]:
    """Register a non-grid command: ``fn(setup, benchmarks) -> str``.

    A report whose signature also accepts a ``store`` keyword receives
    the shared :class:`ResultStore` — that's how fig1 caches its
    run-length profiles alongside the simulation results.
    """

    def decorate(fn: Callable) -> Callable:
        import inspect

        takes_store = "store" in inspect.signature(fn).parameters

        def run(
            setup: ExperimentSetup,
            benchmarks: "Sequence[str] | None" = None,
            store: "ResultStore | None" = None,
            max_workers: int = 0,
        ) -> str:
            if takes_store:
                return fn(setup, benchmarks, store=store)
            return fn(setup, benchmarks)

        _register(ExperimentCommand(name, description, run, None))
        return fn

    return decorate


def _register(command: ExperimentCommand) -> None:
    if command.name in _REGISTRY:
        raise ValueError(f"experiment command {command.name!r} already registered")
    _REGISTRY[command.name] = command


def command_names() -> tuple[str, ...]:
    """Registered command names, in registration order."""
    return tuple(_REGISTRY)


def get_command(name: str) -> ExperimentCommand:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment command {name!r}; "
            f"registered: {', '.join(_REGISTRY)}"
        ) from None


def registered_commands() -> tuple[ExperimentCommand, ...]:
    return tuple(_REGISTRY.values())
