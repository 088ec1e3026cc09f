#!/usr/bin/env python
"""Giga-trace streaming benchmark: bounded-RSS, bit-identical smoke.

Synthesizes a multi-million-instruction binary ChampSim capture and
drives ``python -m repro trace simulate`` as *subprocesses*, one per
phase, so each phase's ``resource.getrusage`` peak RSS is isolated
(``ru_maxrss`` is process-lifetime-max — in-process phases would
contaminate each other).  Phases::

    streamed fast            -- peak RSS must stay under --rss-cap-mib
    materialized reference   (no cap: the low-memory unchunked kernel,
                              the ground truth the digests diff against)

The run FAILS (exit 1) when any ``stats_sha256`` diverges or a streamed
phase exceeds the RSS cap; both are hard acceptance contracts of the
streaming pipeline, not advisory trends.  Per-kernel streamed ==
materialized identity at full kernel coverage is enforced by the tier-1
suite (``tests/sim/test_streaming_exec.py``); this script scales the
streamed window loop to giga-trace length, where materializing the
fast kernel's *boxed* views would not fit the cap.

The fixture mixes a small L1-resident hot set into a 64K-line footprint
(``hot_fraction=0.95``) so the run exercises the streaming machinery at
realistic per-record cost instead of benchmarking the miss path.

Usage::

    PYTHONPATH=src python benchmarks/streaming_bench.py \
        --records 10000000 --out benchmarks/BENCH_streaming.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fixture shape — keep in sync with BENCH_streaming.json when changed.
FIXTURE = {
    "seed": 7,
    "cores": 4,
    "footprint_lines": 1 << 16,
    "hot_lines": 6,
    "hot_fraction": 0.95,
    "write_fraction": 0.05,
}

PHASES = (
    {"name": "streamed-fast", "kernel": "fast", "stream": True},
    {"name": "materialized-reference", "kernel": "reference", "stream": False},
)


def synthesize(path: Path, records: int) -> float:
    from repro.workloads.champsim_bin import synthesize_champsim_bin

    start = time.monotonic()
    synthesize_champsim_bin(path, records, **FIXTURE_KWARGS())
    return time.monotonic() - start


def FIXTURE_KWARGS() -> dict:
    kwargs = dict(FIXTURE)
    kwargs.pop("cores")
    return kwargs


def run_phase(capture: Path, phase: dict, scheme: str) -> dict:
    argv = [
        sys.executable, "-m", "repro", "trace", "simulate", str(capture),
        "--cores", str(FIXTURE["cores"]), "--scheme", scheme,
        "--kernel", phase["kernel"], "--json",
    ]
    if not phase["stream"]:
        argv.append("--no-stream")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(
            f"phase {phase['name']} failed ({proc.returncode}):\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["phase"] = phase["name"]
    result["elapsed_s"] = round(elapsed, 2)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=10_000_000,
                        help="fixture length in instructions (default 10M)")
    parser.add_argument("--rss-cap-mib", type=int, default=512,
                        help="hard peak-RSS ceiling for streamed phases")
    parser.add_argument("--scheme", default="RT-3")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here (e.g. "
                             "benchmarks/BENCH_streaming.json)")
    parser.add_argument("--keep-fixture", type=Path, default=None,
                        help="synthesize into this path and keep it")
    args = parser.parse_args(argv)

    workdir = None
    if args.keep_fixture is not None:
        capture = args.keep_fixture
    else:
        workdir = tempfile.TemporaryDirectory(prefix="streaming-bench-")
        capture = Path(workdir.name) / "fixture.trace.xz"

    try:
        synth_s = synthesize(capture, args.records)
        size_mib = capture.stat().st_size / (1 << 20)
        print(f"fixture: {args.records} instructions, "
              f"{size_mib:.1f} MiB compressed, synthesized in {synth_s:.1f}s")

        results = [run_phase(capture, phase, args.scheme) for phase in PHASES]
        for result in results:
            print(f"  {result['phase']:<24} {result['elapsed_s']:>7.1f}s  "
                  f"rss {result['max_rss_kib'] / 1024:>6.1f} MiB  "
                  f"sha256 {result['stats_sha256'][:12]}")

        failures = []
        digests = {result["stats_sha256"] for result in results}
        if len(digests) != 1:
            failures.append(f"stats digests diverge: {sorted(digests)}")
        for result in results:
            if result["records"] != args.records:
                failures.append(
                    f"{result['phase']}: simulated {result['records']} "
                    f"records, expected {args.records}")
        cap_kib = args.rss_cap_mib * 1024
        for result, phase in zip(results, PHASES):
            if phase["stream"] and result["max_rss_kib"] > cap_kib:
                failures.append(
                    f"{result['phase']}: peak RSS "
                    f"{result['max_rss_kib'] / 1024:.0f} MiB exceeds the "
                    f"{args.rss_cap_mib} MiB cap")

        report = {
            "note": (
                "Streaming giga-trace smoke record (benchmarks/"
                "streaming_bench.py). stats_sha256 equality and the "
                "streamed RSS cap are hard gates; elapsed seconds are "
                "machine-specific context."
            ),
            "records": args.records,
            "scheme": args.scheme,
            # compressed_mib stays OUT of "fixture": the recipe dict is
            # diffed machine-to-machine in CI and xz output size can
            # vary across liblzma versions.
            "fixture": dict(FIXTURE),
            "compressed_mib": round(size_mib, 1),
            "rss_cap_mib": args.rss_cap_mib,
            "phases": results,
            "ok": not failures,
        }
        if args.out is not None:
            args.out.write_text(json.dumps(report, indent=2, sort_keys=True)
                                + "\n", encoding="utf-8")
            print(f"report written to {args.out}")

        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"OK: {len(results)} phases bit-identical, streamed RSS under "
              f"{args.rss_cap_mib} MiB at {args.records} records")
        return 0
    finally:
        if workdir is not None:
            workdir.cleanup()


if __name__ == "__main__":
    sys.exit(main())
