"""Verification subsystem CLI (``python -m repro testing``).

Usage::

    python -m repro testing verify-kernels                      # checked-in matrix
    python -m repro testing verify-kernels --fuzz 25 --seed 7   # randomized profiles
    python -m repro testing verify-kernels --repro case-7.json  # replay a bundle

``verify-kernels`` differentially verifies the ``fast`` simulation
kernel against the reference event loop:

* with no options, over the same three checked-in workload regimes the
  tier-1 differential suite pins (quick sanity run);
* with ``--fuzz N``, over ``N`` randomized profiles derived from
  ``--seed`` (schemes, mixes, patterns, pressures, barriers and
  fractional-gap traces all vary) — the nightly CI entrypoint.  Each
  mismatch writes a repro bundle (profile JSON + seeds) into ``--out``;
* with ``--repro BUNDLE``, replaying one previously written bundle.

Exit status is non-zero on any mismatch, and every mismatch message
leads with the first cycle-stamped divergent stat field.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.common.params import MachineConfig
from repro.schemes.factory import make_scheme
from repro.testing import fuzz
from repro.testing.differential import DifferentialMismatch, verify_kernels
from repro.workloads.benchmarks import build_trace, get_profile

#: The checked-in verification matrix (mirrors tests/testing).
CHECKED_IN_WORKLOADS = (
    ("BARNES", 0.10, 11),
    ("OCEAN-C", 0.10, 23),
    ("DEDUP", 0.10, 37),
)
CHECKED_IN_SCHEMES = ("S-NUCA", "R-NUCA", "VR", "ASR", "RT-3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro testing",
        description="Verification subsystem CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify-kernels",
        aliases=["verify_kernels"],
        help="differentially verify the fast kernel against the reference",
    )
    verify.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="verify N randomized profiles instead of the "
                             "checked-in matrix")
    verify.add_argument("--seed", type=int, default=1,
                        help="base seed for --fuzz case derivation")
    verify.add_argument("--machine", choices=("tiny", "small"), default="tiny",
                        help="machine configuration for fuzz cases")
    verify.add_argument("--out", type=Path, default=Path("fuzz-failures"),
                        help="directory for failure repro bundles")
    verify.add_argument("--repro", type=Path, default=None, metavar="BUNDLE",
                        help="replay one failure bundle JSON and exit")
    roundtrip = sub.add_parser(
        "csv-roundtrip",
        aliases=["csv_roundtrip"],
        help="fuzz randomized TraceSets through the CSV interchange "
             "format and assert exact reconstruction",
    )
    roundtrip.add_argument("--cases", type=int, default=10, metavar="N",
                           help="number of randomized trace sets (default 10)")
    roundtrip.add_argument("--seed", type=int, default=1)
    roundtrip.add_argument("--machine", choices=("tiny", "small"),
                           default="tiny")
    roundtrip.add_argument("--workdir", type=Path,
                           default=Path("csv-roundtrip-fuzz"),
                           help="directory for the intermediate .csv.gz files")
    # Dispatch lives next to the declaration, so aliases can never
    # drift out of sync with main()'s routing.
    roundtrip.set_defaults(handler=_run_csv_roundtrip)
    return parser


def _machine(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig.small() if args.machine == "small" else MachineConfig.tiny()


def _run_repro(args: argparse.Namespace) -> int:
    import json

    with args.repro.open("r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    # The bundle records the machine it was found on; --machine is only
    # a fallback for pre-machine bundles.
    if "machine" not in bundle:
        bundle = {**bundle, "machine": args.machine}
    case = fuzz.FuzzCase.from_bundle(bundle)
    print(f"replaying {case.describe()}")
    try:
        fuzz.run_case(case)
    except DifferentialMismatch as error:
        print(error)
        return 1
    print("bundle no longer diverges (kernels bit-identical)")
    return 0


def _run_checked_in(args: argparse.Namespace) -> int:
    config = _machine(args)
    status = 0
    for benchmark, scale, seed in CHECKED_IN_WORKLOADS:
        traces = build_trace(get_profile(benchmark), config, scale=scale, seed=seed)
        for scheme in CHECKED_IN_SCHEMES:
            context = f"scheme={scheme} workload={benchmark}"
            try:
                stats = verify_kernels(
                    lambda scheme=scheme: make_scheme(scheme, config),
                    traces,
                    context=context,
                )
            except DifferentialMismatch as error:
                print(error)
                status = 1
            else:
                print(f"ok   {context} (completion={stats.completion_time:.0f})")
    return status


def _run_fuzz(args: argparse.Namespace) -> int:
    report = fuzz.run_fuzz(
        args.fuzz,
        args.seed,
        machine=args.machine,
        out_dir=args.out,
        log=print,
    )
    print(report.summary())
    if not report.ok:
        print(
            f"repro any failure locally with: python -m repro testing "
            f"verify-kernels --repro {args.out}/case-<seed>.json"
        )
        return 1
    return 0


def _run_csv_roundtrip(args: argparse.Namespace) -> int:
    failures = fuzz.run_csv_roundtrip_fuzz(
        args.cases, args.seed, args.workdir, machine=args.machine, log=print
    )
    print(f"csv-roundtrip: {args.cases - len(failures)} exact, "
          f"{len(failures)} diverged")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is not None:
        return handler(args)
    if args.repro is not None:
        return _run_repro(args)
    if args.fuzz > 0:
        return _run_fuzz(args)
    return _run_checked_in(args)


