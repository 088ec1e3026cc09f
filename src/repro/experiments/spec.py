"""Declarative experiment API: RunPoints, ExperimentSpecs and the registry.

The paper's evaluation is one large grid — (scheme × benchmark ×
machine-knob) matrices feeding every figure — so the experiment layer
describes each figure as data instead of bespoke loops:

* :class:`RunPoint` — one frozen, hashable simulation coordinate:
  scheme label, benchmark, machine-config overrides, scheme keyword
  arguments, and optional per-point scale/seed/kernel overrides.
* :class:`ExperimentSpec` — a named grid of RunPoints plus presentation
  metadata (title, normalization baseline).  Every figure module builds
  one (``comparison_spec``, ``fig9_spec``, …).
* :func:`execute_spec` — the single executor.  It resolves each point
  against an :class:`~repro.experiments.runner.ExperimentSetup`, checks
  the content-addressed :class:`~repro.experiments.store.ResultStore`,
  simulates only the misses, and returns a queryable
  :class:`~repro.experiments.results.ResultSet`.  ``max_workers > 1``
  fans the missed points out over a process pool
  (:func:`repro.experiments.parallel.execute_spec_parallel`).  Several
  hosts split a grid by running disjoint ``--benchmarks`` subsets into
  one shared store directory; no other executor exists.
* the **registry** — ``@register_experiment`` / ``@register_report``
  bind CLI command names to spec builders (or plain report callables);
  ``python -m repro experiments`` generates its subcommands and
  ``--list`` output from it.

The simulation kernel is *not* part of a point's content address: all
kernels are differentially verified bit-identical, so it only selects
throughput, never results.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Mapping, Sequence

from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentSetup, RunResult, run_one
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
    regardless of spelling order.  ``scale``/``seed``/``kernel`` of
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
    kernel: "str | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "config_overrides", _freeze(self.config_overrides))
        object.__setattr__(self, "scheme_kwargs", _freeze(self.scheme_kwargs))

    @property
    def col_label(self) -> "str | int":
        return self.label if self.label is not None else self.scheme

    def effective_config(self, base):
        """The setup's machine with this point's overrides applied."""
        if not self.config_overrides:
            return base
        return base.with_overrides(**dict(self.config_overrides))

    def fingerprint(self, setup: ExperimentSetup) -> dict:
        """The content-address payload: resolved (scheme, benchmark,
        effective machine config, scheme kwargs, scale, seed).

        The kernel is excluded on purpose — every kernel is verified
        bit-identical, so it cannot change the result.  An ASR point
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
        if self.scheme == "ASR" and "replication_level" not in dict(self.scheme_kwargs):
            payload["asr_levels"] = list(setup.asr_levels)
        return payload


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
    identical points within the spec.  ``max_workers > 1`` spreads the
    missed points over worker processes; results are identical to the
    sequential path (the kernels are deterministic and every point is
    independent).
    """
    if store is None:
        store = ResultStore.memory()
    if max_workers and max_workers > 1:
        from repro.experiments.parallel import execute_spec_parallel

        return execute_spec_parallel(spec, setup, store, max_workers=max_workers)

    setups: dict = {}
    results: dict = {}
    for point in spec.points:
        point_setup = _setup_for(point, setup, setups)
        key = store.key_for(point.fingerprint(setup))
        results[point] = store.get_or_run(
            key, lambda p=point, s=point_setup: _run_point(p, s)
        )
    return ResultSet.from_spec(spec, results)


def _setup_for(point: RunPoint, setup: ExperimentSetup, cache: dict) -> ExperimentSetup:
    """The setup a point executes under (per-point scale/seed overrides
    get a derived setup so trace caching stays correct)."""
    scale = point.scale if point.scale is not None else setup.scale
    seed = point.seed if point.seed is not None else setup.seed
    if scale == setup.scale and seed == setup.seed:
        return setup
    key = (scale, seed)
    derived = cache.get(key)
    if derived is None:
        derived = ExperimentSetup(
            setup.config, scale=scale, seed=seed,
            asr_levels=setup.asr_levels, kernel=setup.kernel,
        )
        cache[key] = derived
    return derived


def _run_point(point: RunPoint, setup: ExperimentSetup) -> RunResult:
    config = point.effective_config(setup.config)
    return run_one(
        setup, point.scheme, point.benchmark,
        config=config, kernel=point.kernel,
        **dict(point.scheme_kwargs),
    )


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
