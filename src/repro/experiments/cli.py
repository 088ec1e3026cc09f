"""Experiments command surface: figures, tables, and the result store.

This is the implementation behind ``python -m repro experiments``.
Usage::

    python -m repro experiments --list
    python -m repro experiments fig1 [options]
    python -m repro experiments fig6|fig7|fig8 [options]
    python -m repro experiments fig9|fig10|rt-sweep [options]
    python -m repro experiments replacement|oracle|tla [options]
    python -m repro experiments strategy|organization [options]
    python -m repro experiments breakdown --benchmarks BARNES [options]
    python -m repro experiments table1|table2|storage
    python -m repro experiments summary [options]
    python -m repro experiments all

The subcommands are generated from the experiment registry
(:mod:`repro.experiments.spec`); ``--list`` prints the catalog.

Options::

    --machine {small,paper}   machine configuration (default: small)
    --scale FLOAT             trace-length multiplier (default: 1.0)
    --seed INT                workload seed (default: 1)
    --benchmarks A,B,C        restrict the benchmark list
    --parallel N              run missed RunPoints on N worker processes
    --no-cache                skip the on-disk result store for this
                              invocation (in-memory dedup still applies)

Results are content-addressed in an on-disk
:class:`~repro.experiments.store.ResultStore` (relocate or disable it
with ``REPRO_RESULT_CACHE``), so ``all`` performs each unique (scheme,
benchmark, config, seed, scale) simulation at most once and repeated
invocations reuse prior runs; the hit/miss accounting is printed to
stderr after every invocation.

A grid splits across hosts with no extra machinery (see the README's
"Multi-host runs" section): each host runs a disjoint ``--benchmarks``
subset with ``REPRO_RESULT_CACHE`` pointing at one shared directory,
and a final run without the subset is served from the store.

``python -m repro experiments store stats|purge [--store DIR]``
inspects and clears an on-disk store.

The default ``small`` machine (16 cores, scaled caches) regenerates the
full figure suite in minutes; ``paper`` uses the Table 1 configuration
(64 cores) and is proportionally slower.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.common.params import MachineConfig
from repro.experiments import spec as spec_registry
from repro.experiments.runner import ExperimentSetup
from repro.experiments.store import JsonDirBackend, ResultStore

#: Registered commands plus the ``all`` expansion, in run order.
COMMANDS = (*spec_registry.command_names(), "all")


# ---------------------------------------------------------------------------
# Experiment-grid surface
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="experiment to run (see --list)")
    parser.add_argument("--list", action="store_true", dest="list_commands",
                        help="list the registered experiments and exit")
    parser.add_argument("--machine", choices=("small", "paper"), default="small")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--benchmarks", type=str, default=None,
                        help="comma-separated benchmark names")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run each experiment grid's missed RunPoints "
                             "on N worker processes (0 = sequential)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result store "
                             "(in-memory deduplication still applies)")
    return parser


def make_setup(args: argparse.Namespace) -> ExperimentSetup:
    config = MachineConfig.paper() if args.machine == "paper" else MachineConfig.small()
    return ExperimentSetup(config, scale=args.scale, seed=args.seed)


def render_command_list() -> str:
    """The ``--list`` catalog, generated from the registry."""
    commands = spec_registry.registered_commands()
    width = max(len(command.name) for command in commands)
    lines = ["Registered experiments:"]
    for command in commands:
        kind = "grid" if command.is_grid else "report"
        lines.append(f"  {command.name.ljust(width)}  [{kind:6s}] {command.description}")
    lines.append(f"  {'all'.ljust(width)}  [meta  ] run every registered experiment")
    return "\n".join(lines)


def _validated_benchmarks(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> "list[str] | None":
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    if benchmarks is not None:
        try:
            spec_registry.validate_benchmarks(benchmarks)
        except ValueError as exc:
            parser.error(str(exc))
    return benchmarks


def main(argv: "list[str] | None" = None, store: "ResultStore | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "store":
        return store_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_commands:
        print(render_command_list())
        return 0
    if args.command is None:
        parser.error("a command is required (or --list to see them)")
    benchmarks = _validated_benchmarks(args, parser)
    setup = make_setup(args)
    if store is None:
        store = ResultStore.memory() if args.no_cache else _store_from_env(parser)
    started = time.time()
    for name in _expand(args.command):
        command = spec_registry.get_command(name)
        print(command.run(setup, benchmarks, store=store, max_workers=args.parallel))
        print()
    print(f"\n[{time.time() - started:.1f}s elapsed]", file=sys.stderr)
    print(f"[{store.describe()}]", file=sys.stderr)
    return 0


def _expand(command: str) -> tuple[str, ...]:
    if command != "all":
        return (command,)
    return spec_registry.command_names()


def _store_from_env(parser: argparse.ArgumentParser) -> ResultStore:
    """The ``REPRO_RESULT_CACHE`` store, or a parser error naming the
    bad value."""
    try:
        return ResultStore.from_env()
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# Store maintenance: store stats / store purge
# ---------------------------------------------------------------------------

def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments store",
        description="Inspect or clear an on-disk result store.",
    )
    sub = parser.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("stats", "entry count and size of a store directory"),
        ("purge", "delete every entry in a store directory"),
    ):
        store_cmd = sub.add_parser(name, help=help_text)
        store_cmd.add_argument("--store", type=Path, default=None,
                               metavar="DIR",
                               help="store directory (default: the "
                                    "REPRO_RESULT_CACHE store)")
    return parser


def store_main(argv: "list[str]") -> int:
    parser = build_store_parser()
    args = parser.parse_args(argv[1:])
    if args.store is not None:
        backend = JsonDirBackend(args.store)
    else:
        backend = _store_from_env(parser).backend
        if backend is None:
            parser.error(
                "no on-disk store: pass --store DIR or point REPRO_RESULT_CACHE "
                "at a directory (it is currently set to a disabling value)"
            )
    if args.store_command == "purge":
        removed = backend.purge()
        print(f"purged {removed.entries} entries "
              f"({removed.total_bytes / 1024 / 1024:.2f} MB) "
              f"from {removed.location}")
        return 0
    print(backend.stats().describe())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
