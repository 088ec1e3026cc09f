"""Benchmark entry point: time one workload, check its outputs, print metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

The workload's unit of work is repeated while another one fits in
``--seconds`` (at least once); every metric is a median over units.
``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` runs one plain unit, installs the span
wrappers of :mod:`tracing`, runs traced units and prints the per-layer
metrics with a layer report.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every simulation is checked: its statistics digest must equal the one
``digests.json`` records for the workload and seed (for a seed it does
not list, the run's first unit sets the expectation and later units must
repeat it), its records simulated must equal the trace's records, and
its Figure 8 miss breakdown must sum to 1.  Grid units must also
simulate every point, never serving one from the store.

``--record-digests 0-30`` refreshes ``digests.json`` for those seeds,
after a change that is meant to alter simulated statistics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: Scratch space: per-run temporary stores and captures, trace dumps and
#: the run-record log.  Ignored by git.
OUT = ROOT / ".perfbench"

#: Set-up is timed at least this many times per run (extra set-ups after
#: the timed units are discarded), so setup_s is a median too.
MIN_SETUPS = 11

END_TO_END = (
    ("wall_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _hermetic_environment() -> None:
    """Measure the program's defaults: no kernel, streaming or store knobs
    from the caller's environment."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    # Worker processes find the package the same way this one does.
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))


def stats_digest(stats) -> str:
    """SHA-256 over every raw field of a SimStats (read as data, so a
    traced run records no spans for it)."""
    payload = {
        "num_cores": stats.num_cores,
        "completion_time": stats.completion_time,
        "core_finish": list(stats.core_finish),
        "counters": dict(stats.counters),
        "energy_counts": dict(stats.energy_counts),
        "latency": dict(stats.latency),
        "miss_status": {status.name: count for status, count in stats.miss_status.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Checker:
    """Output checks; every failed item counts in ``failed``."""

    def __init__(self, expected: dict) -> None:
        self.expected = dict(expected)
        self.source = "digests.json" if expected else "first unit of this run"
        self.attempted = 0
        self.failed = 0

    def check_unit(self, workload, outcome) -> None:
        store_problem = None
        store = outcome.store
        if store is not None and (store.hits or store.misses != len(outcome.items)):
            store_problem = (
                f"store served {store.hits} hits, {store.misses} misses for "
                f"{len(outcome.items)} points"
            )
        for item in outcome.items:
            problems = self._problems(item)
            if store_problem:
                problems.append(store_problem)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"CHECK FAILED {workload.name} {item.key}: "
                      + "; ".join(problems), file=sys.stderr)

    def _problems(self, item) -> list:
        from repro.common.types import MissStatus

        problems = []
        digest = stats_digest(item.stats)
        expected = self.expected.setdefault(item.key, digest)
        if digest != expected:
            problems.append(f"stats digest {digest[:16]} != expected {expected[:16]}")
        simulated = sum(item.stats.miss_status.values())
        if simulated != item.records:
            problems.append(f"simulated {simulated} records of {item.records}")
        if simulated - item.stats.miss_status[MissStatus.L1_HIT]:
            total = sum(item.stats.miss_breakdown().values())
            if abs(total - 1.0) > 1e-9:
                problems.append(f"miss breakdown sums to {total!r}")
        return problems

    def fail_unit(self, workload, error: BaseException) -> None:
        count = workload.expected_items()
        self.attempted += count
        self.failed += count
        print(f"UNIT FAILED {workload.name}: {error!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# Peak memory
# ---------------------------------------------------------------------------

def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux clear_refs)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def _peak_rss_mib(workers: int) -> float:
    """This process's peak RSS since the last reset, plus the largest
    worker's peak when the unit ran worker processes."""
    peak_kib = None
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kib = int(line.split()[1])
    except OSError:
        pass
    if peak_kib is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

class Unit:
    def __init__(self, clock, start, ready, end, peak_rss_mib, outcome) -> None:
        #: Host seconds, raw and scaled to the reference speed (speed.py).
        self.raw_wall_s = end - start
        self.probe_s = clock.probe_mean(start, end)
        self.setup_s = clock.scaled(start, ready)
        self.sim_s = clock.scaled(ready, end)
        self.wall_s = self.setup_s + self.sim_s
        self.peak_rss_mib = peak_rss_mib
        self.outcome = outcome
        #: Trace records simulated, summed over every simulate() call.
        self.records = sum(item.records * item.simulations for item in outcome.items)


def run_unit(workload, seed: int, workdir: Path, index: int, checker: Checker, clock):
    """One timed unit: set-up then work.  None when it raised."""
    gc.collect()
    _reset_peak_rss()
    try:
        start = time.perf_counter()
        state = workload.setup(seed, workdir, index)
        ready = time.perf_counter()
        outcome = workload.run(state)
        end = time.perf_counter()
    except Exception as error:  # a failed unit is a result, not a crash
        checker.fail_unit(workload, error)
        return None
    del state
    unit = Unit(clock, start, ready, end, _peak_rss_mib(workload.workers), outcome)
    checker.check_unit(workload, outcome)
    print(f"unit {index}: wall {unit.wall_s:.3f} s scaled, {unit.raw_wall_s:.3f} s raw "
          f"(setup {unit.setup_s:.4f} s), {unit.records} records, "
          f"{unit.records / unit.sim_s:.0f} records/s, "
          f"peak RSS {unit.peak_rss_mib:.1f} MiB"
          + (f", probe {1000 * unit.probe_s:.3f} ms" if unit.probe_s else ""), flush=True)
    return unit


def run_units(workload, seed, workdir, seconds, checker, clock, start, first_index=0):
    """Repeat units while another one fits before ``start + seconds``."""
    units = []
    index = first_index
    while True:
        unit = run_unit(workload, seed, workdir, index, checker, clock)
        index += 1
        if unit is None:
            break
        units.append(unit)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(u.raw_wall_s for u in units) > seconds:
            break
    return units


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def headline_err_pp(results) -> float:
    """Mean absolute gap, in percentage points, between the grid's eight
    RT-3 headline reductions and the paper's (modelled, not host time)."""
    from repro.experiments.summary import (
        BASELINES,
        PAPER_ENERGY_REDUCTION,
        PAPER_TIME_REDUCTION,
        headline_reductions,
    )

    energy, completion = headline_reductions(results)
    gaps = [abs(energy[b] - PAPER_ENERGY_REDUCTION[b]) for b in BASELINES]
    gaps += [abs(completion[b] - PAPER_TIME_REDUCTION[b]) for b in BASELINES]
    return 100.0 * sum(gaps) / len(gaps)


def end_to_end_metrics(units, setup_samples) -> dict:
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "sim_accesses_per_s": statistics.median(u.records / u.sim_s for u in units),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": statistics.median(u.peak_rss_mib for u in units),
    }


def modelled_ratios(outcome) -> dict:
    """Simulated (not host) ratios over the unit's checked outcomes."""
    from repro.common.types import MissStatus

    records = flits = misses = offchip = replica = 0
    for item in outcome.items:
        status = item.stats.miss_status
        records += item.records
        flits += item.stats.counters["mesh_flits"]
        item_misses = sum(status.values()) - status[MissStatus.L1_HIT]
        misses += item_misses
        offchip += status[MissStatus.OFF_CHIP_MISS]
        replica += status[MissStatus.LLC_REPLICA_HIT]
    return {
        "network.flits_per_access": flits / records if records else 0.0,
        "cache.l1.miss_ratio": misses / records if records else 0.0,
        "dram.offchip_ratio": offchip / misses if misses else 0.0,
        "schemes.replica_hit_ratio": replica / misses if misses else 0.0,
    }


#: Per-layer metrics: (name, unit).  Times are host seconds per unit.
PER_LAYER = (
    ("sim.kernel.self_s", "s"),
    ("schemes.engine.self_s", "s"),
    ("schemes.engine.calls_per_access", "calls/access"),
    ("cache.l1.calls", "count"),
    ("cache.l1.self_s", "s"),
    ("cache.llc.calls", "count"),
    ("cache.llc.self_s", "s"),
    ("cache.array.calls", "count"),
    ("cache.array.self_s", "s"),
    ("cache.replacement.self_s", "s"),
    ("core.classifier.calls", "count"),
    ("core.classifier.self_s", "s"),
    ("coherence.sharers.calls", "count"),
    ("coherence.sharers.self_s", "s"),
    ("network.mesh.send.calls", "count"),
    ("network.mesh.self_s", "s"),
    ("dram.calls", "count"),
    ("dram.self_s", "s"),
    ("sim.stats.self_s", "s"),
    ("sim.stats.finalize_s", "s"),
    ("energy.breakdown_s", "s"),
    ("workloads.trace.self_s", "s"),
    ("workloads.build_trace.s", "s"),
    ("workloads.streaming.scan_s", "s"),
    ("workloads.streaming.stall_s", "s"),
    ("workloads.streaming.windows", "count"),
    ("workloads.champsim_bin.decode_s", "s"),
    ("experiments.store.put.calls", "count"),
    ("experiments.store.put.s", "s"),
    ("experiments.store.hit_ratio", "ratio"),
    ("experiments.parallel.worker_busy_ratio", "ratio"),
    ("experiments.parallel.overhead_s", "s"),
    ("network.flits_per_access", "flits/access"),
    ("cache.l1.miss_ratio", "ratio"),
    ("dram.offchip_ratio", "ratio"),
    ("schemes.replica_hit_ratio", "ratio"),
    ("fidelity.headline_err_pp", "pp"),
    ("trace.simulate_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics(recorder, workload, plain: Unit, traced: list) -> dict:
    import tracing

    snapshot = recorder.snapshot()
    n = len(traced)
    records = sum(u.records for u in traced)

    def per_unit(value):
        return value / n

    def self_s(prefix):
        return per_unit(tracing.self_seconds(snapshot, prefix))

    def calls(prefix):
        return tracing.calls(snapshot, prefix) // n

    def inclusive(name):
        return per_unit(tracing.inclusive_seconds(snapshot, name))

    # Process-pool figures come from the plain unit: its workers run
    # without wrappers, and child CPU time needs none.
    workers = workload.workers
    busy = plain.outcome.child_cpu_s
    engine_calls = tracing.calls(snapshot, "schemes.engine.access")
    last = traced[-1].outcome
    metrics = {
        "sim.kernel.self_s": self_s("sim.kernel"),
        "schemes.engine.self_s": self_s("schemes.engine"),
        "schemes.engine.calls_per_access": engine_calls / records if records else 0.0,
        "cache.l1.calls": calls("cache.l1"),
        "cache.l1.self_s": self_s("cache.l1"),
        "cache.llc.calls": calls("cache.llc"),
        "cache.llc.self_s": self_s("cache.llc"),
        "cache.array.calls": calls("cache.array"),
        "cache.array.self_s": self_s("cache.array"),
        "cache.replacement.self_s": self_s("cache.replacement"),
        "core.classifier.calls": calls("core.classifier"),
        "core.classifier.self_s": self_s("core.classifier"),
        "coherence.sharers.calls": calls("coherence.sharers"),
        "coherence.sharers.self_s": self_s("coherence.sharers"),
        "network.mesh.send.calls": calls("network.mesh.send"),
        "network.mesh.self_s": self_s("network.mesh"),
        "dram.calls": calls("dram.read") + calls("dram.write"),
        "dram.self_s": self_s("dram"),
        "sim.stats.self_s": self_s("sim.stats"),
        "sim.stats.finalize_s": inclusive("sim.stats.finalize"),
        "energy.breakdown_s": inclusive("energy.breakdown"),
        "workloads.trace.self_s": self_s("workloads.trace"),
        "workloads.build_trace.s": inclusive("workloads.build_trace"),
        "workloads.streaming.scan_s": inclusive("workloads.streaming.scan"),
        "workloads.streaming.stall_s": inclusive("workloads.streaming.stall"),
        "workloads.streaming.windows": recorder.counts["workloads.streaming.windows"] // n,
        "workloads.champsim_bin.decode_s": inclusive("workloads.champsim_bin.decode"),
        "experiments.store.put.calls": calls("experiments.store.put"),
        "experiments.store.put.s": inclusive("experiments.store.put"),
        "experiments.store.hit_ratio": (
            last.store.hits / (last.store.hits + last.store.misses)
            if last.store is not None and last.store.hits + last.store.misses else 0.0
        ),
        "experiments.parallel.worker_busy_ratio": (
            busy / (workers * plain.sim_s) if workers else 0.0
        ),
        "experiments.parallel.overhead_s": (
            plain.sim_s - busy / workers if workers else 0.0
        ),
        "fidelity.headline_err_pp": (
            headline_err_pp(last.results) if last.results is not None else 0.0
        ),
        "trace.simulate_s": inclusive("sim.kernel.simulate"),
        "trace.unattributed_s": per_unit(tracing.unattributed_seconds(snapshot)),
        "trace.overhead_ratio": (
            statistics.median(u.wall_s for u in traced) / plain.wall_s
        ),
    }
    metrics.update(modelled_ratios(last))
    return metrics


def layer_report(metrics: dict, traced_wall: float) -> str:
    lines = [f"layer report (host time per traced unit; traced wall {traced_wall:.3f} s)"]
    for name, unit in PER_LAYER:
        value = metrics[name]
        share = f"{100 * value / traced_wall:6.1f}%" if unit == "s" else " " * 7
        lines.append(f"  {name:<40} {value:>14.6g} {unit:<13} {share}")
    attributed = metrics["trace.simulate_s"] - metrics["trace.unattributed_s"]
    lines.append(
        f"  simulate() wall {metrics['trace.simulate_s']:.3f} s = span self times "
        f"{attributed:.3f} s + unattributed {metrics['trace.unattributed_s']:.6f} s"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def run_record(args) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha,
        "src_sha256": tree.hexdigest(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get("seeds", {})


def measure(args, workload, workdir: Path) -> dict:
    record = run_record(args)
    print("run-record: " + json.dumps(record, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps(record, sort_keys=True) + "\n")

    checker = Checker(load_digests().get(str(args.seed), {}))
    workload.prepare(args.seed, workdir)
    start = time.perf_counter()
    if not args.trace:
        spool = workdir / "probes"
        spool.mkdir()
        with speed.SpeedProbe(workload.workers, spool) as probe:
            units = run_units(workload, args.seed, workdir, args.seconds, checker,
                              probe, start)
            samples = [u.setup_s for u in units]
            while units and len(samples) < MIN_SETUPS:
                gc.collect()
                began = time.perf_counter()
                workload.setup(args.seed, workdir, len(units) + len(samples))
                samples.append(probe.scaled(began, time.perf_counter()))
        if not units:
            return _failed(checker)
        probes = [duration for _stamp, duration in probe.all_samples()]
        print(f"host speed: {len(probes)} probes, mean "
              f"{1000 * statistics.fmean(probes):.3f} ms "
              f"(reference {1000 * speed.REFERENCE_S:.3f} ms)")
        values = end_to_end_metrics(units, samples)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        if units[-1].outcome.results is not None:
            print(f"headline_err_pp = {headline_err_pp(units[-1].outcome.results):.4f} pp "
                  f"(modelled RT-3 reductions vs the paper's)")
    else:
        import tracing
        import workloads

        clock = speed.RawClock()
        plain = run_unit(workload, args.seed, workdir, 0, checker, clock)
        if plain is None:
            return _failed(checker)
        recorder = tracing.Recorder()
        tracing.install(recorder)
        workloads.build_replica_hot = recorder.wrap(
            "workloads.build_trace", workloads.build_replica_hot
        )
        traced = run_units(workload, args.seed, workdir, args.seconds, checker,
                           clock, start, 1)
        if not traced:
            return _failed(checker)
        values = per_layer_metrics(recorder, workload, plain, traced)
        traced_wall = statistics.median(u.wall_s for u in traced)
        print(layer_report(values, traced_wall))
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.dump(dump, {"run": record, "metrics": values,
                             "traced_units": len(traced)})
        print(f"spans written to {dump.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    print(f"failed_ratio = {checker.failed / checker.attempted:.4f} "
          f"({checker.failed} of {checker.attempted} simulations; expected "
          f"digests from {checker.source})")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def _failed(checker: Checker) -> dict:
    """The result of a run whose first unit raised: no metrics."""
    return {"correct": False, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": {}}


def record_digests(spec: str) -> int:
    """Write the expected digests of every workload for the given seeds."""
    import workloads

    low, _, high = spec.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    document = {"note": "Expected SimStats digests per seed; regenerate with "
                        "python3 perfbench/run.py --record-digests 0-30",
                "seeds": load_digests()}
    workdir = OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in seeds:
            checker = Checker({})
            # grid-2proc's points are a subset of paper-grid's.
            for name in ("paper-grid", "replica-hot", "stream-capture"):
                workload = workloads.WORKLOADS[name]()
                workload.prepare(seed, workdir)
                run_unit(workload, seed, workdir, 0, checker, speed.RawClock())
            if checker.failed or not checker.attempted:
                print(f"seed {seed}: checks failed, not recorded", file=sys.stderr)
                return 1
            document["seeds"][str(seed)] = dict(sorted(checker.expected.items()))
            print(f"seed {seed}: {len(checker.expected)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document["seeds"] = dict(sorted(document["seeds"].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("paper-grid", "replica-hot", "stream-capture", "grid-2proc"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LOW-HIGH",
                        help="refresh digests.json for these seeds and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    _hermetic_environment()
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.workload is None:
        parser.error("--workload is required")

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}", flush=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
