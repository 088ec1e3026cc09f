"""Multi-host runs: disjoint ``--benchmarks`` partitions over one store.

A grid splits across hosts with no service: each host runs a disjoint
benchmark subset with ``REPRO_RESULT_CACHE`` pointing at one shared
directory, and a final collector run over the whole grid is served
from the store.  Real processes stand in for the hosts here.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import build_parser, make_setup
from repro.experiments.cli import main as experiments_main
from repro.experiments.spec import execute_spec, get_command
from repro.experiments.store import ResultStore

PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])
GRID = ["fig6", "--scale", "0.05"]
BENCHMARKS = ("DEDUP", "BARNES")


def partition(store_root, benchmarks):
    """Start one host's partition as a separate CLI process."""
    env = os.environ.copy()
    current = env.get("PYTHONPATH", "")
    if PACKAGE_ROOT not in current.split(os.pathsep):
        env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + current if current else "")
    env["REPRO_RESULT_CACHE"] = str(store_root)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "experiments", *GRID,
         "--benchmarks", ",".join(benchmarks)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def run_cli(argv, capsys, store):
    assert experiments_main(argv, store=store) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def sequential_results():
    """The whole grid, simulated in this process with no disk store."""
    args = build_parser().parse_args([*GRID, "--benchmarks", ",".join(BENCHMARKS)])
    setup = make_setup(args)
    spec = get_command("fig6").build(setup, list(BENCHMARKS))
    return setup, spec, execute_spec(spec, setup, ResultStore.memory())


def assert_bit_identical(store_root, sequential_results):
    setup, spec, sequential = sequential_results
    store = ResultStore(store_root)
    collected = execute_spec(spec, setup, store)
    assert store.misses == 0
    for point in spec.points:
        ours = collected.result_for(point)
        theirs = sequential.result_for(point)
        assert ours.stats == theirs.stats, point
        assert ours.energy_breakdown == theirs.energy_breakdown, point
        assert ours.asr_level == theirs.asr_level, point


class TestMultiHostPartitions:
    def test_concurrent_partitions_then_collector(
        self, tmp_path, capsys, sequential_results
    ):
        store_root = tmp_path / "store"
        hosts = [partition(store_root, (name,)) for name in BENCHMARKS]
        for host in hosts:
            assert host.wait(timeout=300) == 0
        argv = [*GRID, "--benchmarks", ",".join(BENCHMARKS)]
        collector = ResultStore(store_root)
        collected_out = run_cli(argv, capsys, collector)
        assert collector.misses == 0
        assert collector.disk_hits > 0
        reference_out = run_cli([*argv, "--no-cache"], capsys, None)
        assert collected_out == reference_out
        assert_bit_identical(store_root, sequential_results)

    def test_killed_partition_is_rerun_from_its_commits(
        self, tmp_path, capsys, sequential_results
    ):
        store_root = tmp_path / "store"
        victim = partition(store_root, BENCHMARKS)
        try:
            deadline = time.time() + 120.0
            while not any(store_root.glob("*.json")):
                assert victim.poll() is None, "partition exited before a commit"
                assert time.time() < deadline, "partition never committed"
                time.sleep(0.02)
            victim.send_signal(signal.SIGKILL)
            assert victim.wait(timeout=30) == -signal.SIGKILL
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        argv = [*GRID, "--benchmarks", ",".join(BENCHMARKS)]
        rerun = ResultStore(store_root)
        rerun_out = run_cli(argv, capsys, rerun)
        assert rerun.disk_hits >= 1
        reference_out = run_cli([*argv, "--no-cache"], capsys, None)
        assert rerun_out == reference_out
        assert_bit_identical(store_root, sequential_results)
