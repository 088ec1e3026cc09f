"""Experiments command surface: figures, tables, and the distributed service.

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
    --parallel N              shard RunPoints over N worker processes
    --distributed N           run the grid through the experiment
                              service with N local worker processes
                              (crash-tolerant leases; bit-identical)
    --queue DIR               work-queue directory for --distributed
                              (default: a fresh temporary directory)
    --lease-ttl SECONDS       distributed lease timeout (default: 60)
    --kernel {reference,fast}
                              simulation kernel (default: fast; the two
                              are differentially verified bit-identical)
    --no-cache                skip the on-disk result store for this
                              invocation (in-memory dedup still applies)

Results are content-addressed in an on-disk
:class:`~repro.experiments.store.ResultStore` (relocate or disable it
with ``REPRO_RESULT_CACHE``; ``shared:<dir>`` selects the fanout layout
for network mounts; ``REPRO_RESULT_CACHE_MAX_MB`` bounds its size with
LRU eviction), so ``all`` performs each unique (scheme, benchmark,
config, seed, scale) simulation at most once and repeated invocations
reuse prior runs; the hit/miss accounting is printed to stderr after
every invocation.

The **distributed service** adds three commands (see the README's
"Distributed runs" section)::

    python -m repro experiments serve CMD --queue DIR [options]
    python -m repro experiments work --queue DIR --store DIR [options]
    python -m repro experiments store stats|purge [--store DIR]

``serve`` brokers a grid's store-missed points onto a shared-filesystem
work queue; any number of ``work`` processes — on any machine mounting
the queue and the shared store — lease, simulate and commit them.
``store stats``/``store purge`` inspect and clear an on-disk store.

The default ``small`` machine (16 cores, scaled caches) regenerates the
full figure suite in minutes; ``paper`` uses the Table 1 configuration
(64 cores) and is proportionally slower.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.common.params import MachineConfig
from repro.experiments import spec as spec_registry
from repro.experiments.runner import ExperimentSetup
from repro.experiments.store import (
    ResultStore,
    max_bytes_from_env,
    open_disk_backend,
)
from repro.sim.kernel import kernel_names

#: Registered commands plus the ``all`` expansion, in run order.
COMMANDS = (*spec_registry.command_names(), "all")

#: Service words routed to their own parser (everything after them
#: belongs to the service grammar, not the experiment-grid options).
SERVICE_COMMANDS = ("serve", "work", "store")


# ---------------------------------------------------------------------------
# Experiment-grid surface
# ---------------------------------------------------------------------------

def _add_setup_options(parser: argparse.ArgumentParser) -> None:
    """The options every grid-executing command shares."""
    parser.add_argument("--machine", choices=("small", "paper"), default="small")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--benchmarks", type=str, default=None,
                        help="comma-separated benchmark names")
    parser.add_argument("--kernel", choices=kernel_names(), default=None,
                        help="simulation kernel (default: fast; reference "
                             "and fast are differentially verified "
                             "bit-identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="experiment to run (see --list)")
    parser.add_argument("--list", action="store_true", dest="list_commands",
                        help="list the registered experiments and exit")
    _add_setup_options(parser)
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="shard each experiment grid's RunPoints over "
                             "N worker processes (0 = sequential)")
    parser.add_argument("--distributed", type=int, default=0, metavar="N",
                        help="run each grid through the distributed "
                             "experiment service with N local workers "
                             "(0 = off); see also 'serve' and 'work'")
    parser.add_argument("--queue", type=Path, default=None, metavar="DIR",
                        help="work-queue directory for --distributed "
                             "(default: a fresh temporary directory)")
    parser.add_argument("--lease-ttl", type=float, default=60.0,
                        metavar="SECONDS",
                        help="distributed lease timeout before a point is "
                             "requeued (default: 60)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result store "
                             "(in-memory deduplication still applies)")
    return parser


def make_setup(args: argparse.Namespace) -> ExperimentSetup:
    config = MachineConfig.paper() if args.machine == "paper" else MachineConfig.small()
    return ExperimentSetup(config, scale=args.scale, seed=args.seed, kernel=args.kernel)


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


def _distributed_executor(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    store: ResultStore,
):
    """The ``--distributed N`` executor, or a parser error."""
    from repro.experiments.service import make_distributed_executor

    if args.no_cache:
        parser.error("--distributed needs the shared result store; "
                     "drop --no-cache")
    if store.root is None or not getattr(store.backend, "persistent", False):
        parser.error("--distributed needs a disk-backed result store; "
                     "unset the disabling REPRO_RESULT_CACHE value")
    queue_root = args.queue or Path(tempfile.mkdtemp(prefix="repro-queue-"))
    return make_distributed_executor(
        queue_root,
        workers=args.distributed,
        lease_ttl=args.lease_ttl,
        log=lambda message: print(message, file=sys.stderr),
    )


def main(argv: "list[str] | None" = None, store: "ResultStore | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SERVICE_COMMANDS:
        return service_main(argv)
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
        store = ResultStore.memory() if args.no_cache else ResultStore.from_env()
    executor = None
    if args.distributed:
        executor = _distributed_executor(args, parser, store)
    started = time.time()
    for name in _expand(args.command):
        command = spec_registry.get_command(name)
        print(command.run(
            setup, benchmarks, store=store, max_workers=args.parallel,
            executor=executor,
        ))
        print()
    print(f"\n[{time.time() - started:.1f}s elapsed]", file=sys.stderr)
    print(f"[{store.describe()}]", file=sys.stderr)
    return 0


def _expand(command: str) -> tuple[str, ...]:
    if command != "all":
        return (command,)
    return spec_registry.command_names()


# ---------------------------------------------------------------------------
# Service surface: serve / work / store
# ---------------------------------------------------------------------------

def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Distributed experiment service.",
    )
    sub = parser.add_subparsers(dest="service", required=True)

    serve = sub.add_parser(
        "serve",
        help="broker an experiment grid onto a shared work queue",
        description="Queue a grid's store-missed points and collect the "
                    "results workers commit; bit-identical to running "
                    "the grid sequentially.",
    )
    serve.add_argument("command", choices=COMMANDS,
                       help="experiment grid to broker")
    serve.add_argument("--queue", type=Path, required=True, metavar="DIR",
                       help="work-queue directory (create/reuse); workers "
                            "attach to it with 'work --queue'")
    _add_setup_options(serve)
    serve.add_argument("--store", type=Path, default=None, metavar="DIR",
                       help="shared result-store directory (default: the "
                            "REPRO_RESULT_CACHE store)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="also launch N local worker processes "
                            "(default: rely on externally started workers)")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="queue shards (default: max(workers, 4))")
    serve.add_argument("--lease-ttl", type=float, default=60.0)
    serve.add_argument("--max-attempts", type=int, default=3)
    serve.add_argument("--retry-backoff", type=float, default=0.5)
    serve.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds per grid")

    work = sub.add_parser(
        "work",
        help="serve leases from a work queue until it stops",
        description="Lease tasks from --queue, simulate (or read through "
                    "the shared store), and commit results; exits when "
                    "the broker raises the stop sentinel.",
    )
    work.add_argument("--queue", type=Path, required=True, metavar="DIR")
    work.add_argument("--store", type=Path, default=None, metavar="DIR",
                      help="shared result-store directory (default: the "
                           "REPRO_RESULT_CACHE store)")
    work.add_argument("--worker-id", type=str, default=None)
    work.add_argument("--shards", type=str, default="", metavar="I,J,...",
                      help="preferred queue shards (work-stealing covers "
                           "the rest)")
    work.add_argument("--wait", type=float, default=0.0, metavar="SECONDS",
                      help="wait up to this long for the queue to appear")
    work.add_argument("--max-tasks", type=int, default=None)
    work.add_argument("--idle-timeout", type=float, default=None,
                      help="exit after this many consecutive idle seconds")

    store = sub.add_parser(
        "store",
        help="inspect or clear an on-disk result store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("stats", "entry count, size and bound of a store directory"),
        ("purge", "delete every entry in a store directory"),
    ):
        store_cmd = store_sub.add_parser(name, help=help_text)
        store_cmd.add_argument("--store", type=Path, default=None,
                               metavar="DIR",
                               help="store directory (default: the "
                                    "REPRO_RESULT_CACHE store)")
    return parser


def _open_store(path: "Path | None", parser: argparse.ArgumentParser) -> ResultStore:
    """A disk-backed store from ``--store`` or the environment."""
    if path is not None:
        return ResultStore(
            backend=open_disk_backend(path, max_bytes=max_bytes_from_env())
        )
    store = ResultStore.from_env()
    if store.root is None:
        parser.error(
            "no on-disk store: pass --store DIR or point REPRO_RESULT_CACHE "
            "at a directory (it is currently set to a disabling value)"
        )
    return store


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.service import make_distributed_executor

    benchmarks = _validated_benchmarks(args, parser)
    setup = make_setup(args)
    store = _open_store(args.store, parser)
    say = lambda message: print(message, file=sys.stderr)  # noqa: E731
    executor = make_distributed_executor(
        args.queue,
        workers=args.workers,
        subdir_per_spec=False,
        num_shards=args.shards or max(args.workers, 4),
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        retry_backoff=args.retry_backoff,
        timeout=args.timeout,
        stop_when_done=False,
        log=say,
    )
    started = time.time()
    try:
        for name in _expand(args.command):
            command = spec_registry.get_command(name)
            print(command.run(setup, benchmarks, store=store, executor=executor))
            print()
    finally:
        _stop_queue(args.queue)
    print(f"\n[{time.time() - started:.1f}s elapsed]", file=sys.stderr)
    print(f"[{store.describe()}]", file=sys.stderr)
    return 0


def _stop_queue(queue_root: Path) -> None:
    """Raise the stop sentinel so attached workers drain out and exit."""
    from repro.experiments.service import QueueError, WorkQueue

    try:
        WorkQueue.open(queue_root).stop()
    except QueueError:
        pass  # the grid was fully store-served; no queue was created


def _cmd_work(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.service import QueueError, WorkQueue
    from repro.experiments.service.worker import HOLD_FIRST_ENV_VAR, Worker

    store = _open_store(args.store, parser)
    try:
        shards = tuple(
            int(part) for part in args.shards.split(",") if part.strip()
        )
    except ValueError:
        parser.error(f"--shards must be comma-separated integers, "
                     f"got {args.shards!r}")
    try:
        queue = WorkQueue.open(args.queue, wait=args.wait)
    except QueueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker = Worker(
        queue,
        store,
        worker_id=args.worker_id,
        preferred_shards=shards,
        hold_first_s=float(os.environ.get(HOLD_FIRST_ENV_VAR, "0") or 0),
    )
    stats = worker.run(max_tasks=args.max_tasks, idle_timeout=args.idle_timeout)
    print(f"[worker {worker.worker_id}: {stats.describe()}]", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    store = _open_store(args.store, parser)
    backend = store.backend
    if args.store_command == "purge":
        if not hasattr(backend, "purge"):
            parser.error(f"{backend.location()} is not a purgeable disk store")
        removed = backend.purge()
        print(f"purged {removed.entries} entries "
              f"({removed.total_bytes / 1024 / 1024:.2f} MB) "
              f"from {removed.location}")
        return 0
    print(backend.stats().describe())
    return 0


def service_main(argv: "list[str]") -> int:
    parser = build_service_parser()
    args = parser.parse_args(argv)
    if args.service == "serve":
        return _cmd_serve(args, parser)
    if args.service == "work":
        return _cmd_work(args, parser)
    return _cmd_store(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
