"""Top-level command-line entry point — the single documented CLI surface.

Usage::

    python -m repro trace import CAPTURE --out TRACE.npz [options]
    python -m repro trace inspect TRACE.npz
    python -m repro trace simulate TRACE [--scheme S] [--stream] [--json]
    python -m repro trace synthesize-fixture --format FMT --out CAPTURE [options]
    python -m repro experiments ...     figures, tables, distributed service
    python -m repro testing ...         kernel verification / fuzzing

The ``experiments`` group (:mod:`repro.experiments.cli`) regenerates
every figure and table, and hosts the distributed experiment service
(``serve`` / ``work`` / ``store`` / ``--distributed N``); the
``testing`` group (:mod:`repro.testing.cli`) differentially verifies
the simulation kernels.

The ``trace`` group is the real-trace ingestion pipeline
(:mod:`repro.workloads.imports`):

``import``
    Convert an external capture — ChampSim-style text, din-style text,
    or the CSV interchange format, optionally gzipped — into a
    first-class ``.npz`` trace archive with inferred data-class regions
    and provenance metadata.  The result runs anywhere a catalog
    benchmark does: ``python -m repro experiments fig6 --benchmarks
    imported:TRACE.npz``.

``inspect``
    Print an archive's shape: cores, record/barrier counts, the
    inferred region map per data class, and provenance.

``simulate``
    Run a trace archive or a ChampSim *binary* capture
    (``.trace.xz``/``.champsimtrace.xz``) through one scheme.  Binary
    captures stream by default: chunks are decoded on a background
    thread while the simulator consumes the previous chunk, so
    giga-record captures run in bounded memory.  ``--json`` emits a
    digest line (stats SHA-256, completion time, peak RSS) that the
    ``streaming-smoke`` CI job diffs across streamed and materialized
    runs.

``synthesize-fixture``
    Generate a small synthetic capture *in an external format* — the
    fixture generator behind the ``trace-conformance`` CI job and a
    quick way to try the importer without a real capture.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.common.params import MachineConfig
from repro.common.types import LineClass
from repro.sim.kernel import kernel_names
from repro.workloads.benchmarks import BenchmarkProfile, build_trace
from repro.workloads.imports import (
    ALL_FORMATS,
    FORMATS,
    SPLITS,
    ImportOptions,
    detect_format,
    export_champsim,
    export_csv,
    export_din,
    import_trace,
)
from repro.workloads.io import load_trace_set, save_trace_set

#: Core counts the fixture generator supports, mapped to a machine whose
#: geometry scales the synthetic working sets (num_cores must match a
#: valid mesh, so arbitrary counts are not constructible).
FIXTURE_MACHINES = {
    1: lambda: MachineConfig.tiny(num_cores=1, num_mem_controllers=1),
    4: MachineConfig.tiny,
    16: MachineConfig.small,
    64: MachineConfig.paper,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="repro command-line interface.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    # Help-only entries: main() hands these groups' argv to their own CLIs.
    groups.add_parser("experiments", help="figures, tables and the distributed service")
    groups.add_parser("testing", help="kernel verification and fuzzing")

    trace = groups.add_parser("trace", help="real-trace ingestion pipeline")
    commands = trace.add_subparsers(dest="command", required=True)

    imp = commands.add_parser(
        "import", help="convert an external capture into a .npz trace archive"
    )
    imp.add_argument("capture", type=Path, help="capture file (may be .gz)")
    imp.add_argument("--out", "-o", type=Path, required=True,
                     help="output .npz trace archive")
    imp.add_argument("--format", choices=(*ALL_FORMATS, "auto"), default="auto",
                     help="capture format (default: auto-detect by "
                          "extension, then content)")
    imp.add_argument("--cores", type=int, default=None, metavar="N",
                     help="number of cores (champsim/din: split target, "
                          "default 1; csv: validates record core ids, "
                          "default inferred as max id + 1)")
    imp.add_argument("--split", choices=SPLITS, default="round-robin",
                     help="single-stream record distribution: round-robin "
                          "(record i -> core i mod N) or blocks (N "
                          "contiguous chunks); csv carries explicit core "
                          "ids and ignores this")
    imp.add_argument("--line-bytes", type=int, default=64,
                     help="cache-line size for byte->line address "
                          "conversion in champsim/din captures (default 64)")
    imp.add_argument("--name", type=str, default=None,
                     help="trace-set name (default: capture file stem)")
    imp.add_argument("--max-inst", type=int, default=None, metavar="N",
                     help="import at most N records/instructions from the "
                          "capture (giga-trace sampling)")

    inspect = commands.add_parser(
        "inspect", help="summarize a .npz trace archive"
    )
    inspect.add_argument("archive", type=Path)

    synth = commands.add_parser(
        "synthesize-fixture",
        help="generate a small synthetic capture in an external format",
    )
    synth.add_argument("--format", choices=ALL_FORMATS, required=True)
    synth.add_argument("--out", "-o", type=Path, required=True)
    synth.add_argument("--cores", type=int, default=4,
                       choices=sorted(FIXTURE_MACHINES),
                       help="cores in the synthesized capture (default 4)")
    synth.add_argument("--records", type=int, default=200,
                       help="accesses per core (default 200)")
    synth.add_argument("--seed", type=int, default=1)

    sim = commands.add_parser(
        "simulate",
        help="run an archive or binary capture through one scheme "
             "(streaming by default for captures)",
    )
    sim.add_argument("trace", type=Path,
                     help=".npz trace archive or ChampSim binary capture "
                          "(.trace/.champsimtrace, optionally .xz/.gz)")
    sim.add_argument("--scheme", default="RT-3",
                     help="scheme label (default RT-3); see "
                          "repro.schemes.factory.FIGURE_SCHEMES")
    sim.add_argument("--kernel", choices=kernel_names(), default=None,
                     help="simulation kernel (default: "
                          "REPRO_SIM_KERNEL or fast); a streamed capture "
                          "always runs the fast kernel's window loop")
    sim.add_argument("--cores", type=int, default=None,
                     choices=sorted(FIXTURE_MACHINES),
                     help="core count for binary captures (default 4); "
                          "archives carry their own")
    stream_group = sim.add_mutually_exclusive_group()
    stream_group.add_argument("--stream", dest="stream", action="store_true",
                              default=None,
                              help="force bounded-memory streaming "
                                   "(default for binary captures)")
    stream_group.add_argument("--no-stream", dest="stream",
                              action="store_false",
                              help="force full materialization")
    sim.add_argument("--chunk", type=int, default=None, metavar="RECORDS",
                     help="streaming window size in records per core "
                          "(default: REPRO_STREAM_CHUNK or 65536)")
    sim.add_argument("--max-inst", type=int, default=None, metavar="N",
                     help="simulate at most N capture instructions")
    sim.add_argument("--json", action="store_true",
                     help="emit one machine-readable JSON line (stats "
                          "digest, completion time, peak RSS)")
    return parser


def _cmd_import(args: argparse.Namespace) -> int:
    options = ImportOptions(
        num_cores=args.cores,
        split=args.split,
        line_bytes=args.line_bytes,
        name=args.name,
        max_records=args.max_inst,
    )
    traces = import_trace(args.capture, fmt=args.format, options=options)
    out = save_trace_set(traces, args.out)
    provenance = traces.provenance or {}
    print(
        f"imported {args.capture} ({provenance.get('format', '?')}) -> {out}: "
        f"{traces.num_cores} cores, {provenance.get('records', 0)} records, "
        f"{provenance.get('barriers', 0)} barriers, "
        f"{len(traces.regions)} inferred regions"
    )
    print(f"run it with: python -m repro experiments fig6 --benchmarks imported:{out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    traces = load_trace_set(args.archive)
    lengths = [len(trace) for trace in traces.cores]
    print(f"name:     {traces.name}")
    print(f"cores:    {traces.num_cores}")
    print(
        f"records:  {sum(lengths)} total "
        f"(per core min {min(lengths)}, max {max(lengths)})"
    )
    print(f"barriers: {traces.cores[0].barrier_count()} per core")
    by_class: dict[LineClass, list[int]] = {}
    for region, line_class in traces.regions:
        by_class.setdefault(line_class, []).append(region.size)
    print(f"regions:  {len(traces.regions)} "
          f"({traces.footprint_lines()} lines mapped)")
    for line_class in LineClass:
        sizes = by_class.get(line_class)
        if sizes:
            print(f"  {line_class.label:17s} {len(sizes):4d} regions, "
                  f"{sum(sizes)} lines")
    if traces.provenance:
        print("provenance:")
        for key, value in sorted(traces.provenance.items()):
            print(f"  {key}: {value}")
    return 0


def _fixture_profile(fmt: str, records: int) -> BenchmarkProfile:
    """A small mixed-class profile expressible in the target format.

    The single-stream text formats carry neither barriers nor compute
    gaps (and champsim cannot encode instruction fetches), so those
    features are zeroed to keep the synthesized capture exactly
    re-importable; the CSV interchange format carries everything.
    """
    f_ifetch = 0.0 if fmt.startswith("champsim") else 0.05
    return BenchmarkProfile(
        name=f"FIXTURE-{fmt.upper()}",
        description=f"synthesized {fmt} conformance fixture",
        f_ifetch=f_ifetch,
        f_private=0.50 - f_ifetch,
        f_shared_ro=0.25,
        f_shared_rw=0.25,
        shared_ro_ws_x_l1d=2.0,
        shared_rw_ws_x_l1d=2.0,
        write_frac_rw=0.2,
        mean_gap=2.0 if fmt == "csv" else 0.0,
        barriers=2 if fmt == "csv" else 0,
        accesses_per_core=records,
    )


def _cmd_synthesize(args: argparse.Namespace) -> int:
    config = FIXTURE_MACHINES[args.cores]()
    traces = build_trace(
        _fixture_profile(args.format, args.records), config, seed=args.seed
    )
    if args.format == "csv":
        out = export_csv(traces, args.out)
    elif args.format == "din":
        out = export_din(traces, args.out)
    elif args.format == "champsim-bin":
        from repro.workloads.champsim_bin import write_champsim_bin

        out = write_champsim_bin(traces, args.out)
    else:
        out = export_champsim(traces, args.out)
    total = sum(len(trace) for trace in traces.cores)
    print(f"synthesized {args.format} fixture -> {out}: "
          f"{traces.num_cores} cores, {total} records")
    print(f"import it with: python -m repro trace import {out} "
          f"--cores {traces.num_cores} --out {out}.npz")
    return 0


def _stats_digest(stats) -> str:
    """SHA-256 over the canonical JSON dump of a SimStats.

    Canonical = sorted keys, full float repr; two runs hash equal iff
    their stats are bit-identical — the streamed-vs-materialized CI
    contract compares these digests across processes.
    """
    import hashlib
    import json

    payload = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json
    import resource

    from repro.schemes.factory import make_scheme
    from repro.sim.simulator import simulate
    from repro.workloads.streaming import StreamingTraceSet, stream_threshold_bytes

    path = args.trace
    if not path.exists():
        raise SystemExit(f"{path} does not exist")
    is_archive = path.suffix == ".npz"
    if is_archive:
        if args.max_inst is not None:
            raise SystemExit("--max-inst applies to binary captures, not "
                             ".npz archives (re-import with --max-inst)")
        traces = load_trace_set(path)
        stream = args.stream
        if stream is None:
            threshold = stream_threshold_bytes()
            stream = threshold >= 0 and path.stat().st_size >= threshold
        if stream:
            traces = StreamingTraceSet.from_trace_set(traces, args.chunk)
    else:
        if detect_format(path) != "champsim-bin":
            raise SystemExit(
                f"{path} is neither a .npz archive nor a ChampSim binary "
                f"capture; text captures must be imported first "
                f"(python -m repro trace import)"
            )
        cores = args.cores if args.cores is not None else 4
        if args.stream is False:
            traces = import_trace(
                path,
                fmt="champsim-bin",
                options=ImportOptions(num_cores=cores,
                                      max_records=args.max_inst),
            )
        else:
            traces = StreamingTraceSet.from_champsim_bin(
                path,
                num_cores=cores,
                chunk_records=args.chunk,
                max_instructions=args.max_inst,
            )
    config_factory = FIXTURE_MACHINES.get(traces.num_cores)
    if config_factory is None:
        raise SystemExit(
            f"no machine geometry for {traces.num_cores} cores "
            f"(supported: {sorted(FIXTURE_MACHINES)})"
        )
    engine = make_scheme(args.scheme, config_factory())
    stats = simulate(engine, traces, kernel=args.kernel)
    streamed = bool(getattr(traces, "is_streaming", False))
    records = (
        traces.total_records
        if streamed
        else sum(len(trace) for trace in traces.cores)
    )
    result = {
        "trace": str(path),
        "scheme": args.scheme,
        "kernel": args.kernel or "default",
        "streamed": streamed,
        "records": records,
        "completion_time": stats.completion_time,
        "stats_sha256": _stats_digest(stats),
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        mode = "streamed" if streamed else "materialized"
        print(f"{path} [{args.scheme}] {mode}: "
              f"{records} records, completion {stats.completion_time:.1f}, "
              f"peak RSS {result['max_rss_kib'] / 1024:.0f} MiB")
        print(f"stats sha256: {result['stats_sha256']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Forward the sibling CLIs so `python -m repro <group>` covers the
    # whole toolbox; their parsers own everything after the group name.
    if argv and argv[0] == "experiments":
        from repro.experiments.cli import main as experiments_main

        return experiments_main(argv[1:])
    if argv and argv[0] == "testing":
        from repro.testing.cli import main as testing_main

        return testing_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "import":
        return _cmd_import(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_synthesize(args)


if __name__ == "__main__":
    raise SystemExit(main())
