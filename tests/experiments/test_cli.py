"""Command-line interface tests (registry-generated subcommands)."""

import pytest

from repro.experiments.cli import COMMANDS, _expand, build_parser, main
from repro.experiments.runner import ExperimentSetup
from repro.experiments.spec import command_names, get_command
from repro.experiments.store import ResultStore


class TestParser:
    def test_commands_listed(self):
        for command in ("fig1", "fig6", "summary", "storage", "all",
                        "tla", "strategy", "organization", "breakdown"):
            assert command in COMMANDS

    def test_commands_generated_from_registry(self):
        assert COMMANDS == (*command_names(), "all")

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.machine == "small"
        assert args.scale == 1.0
        assert args.seed == 1
        assert args.benchmarks is None
        assert args.no_cache is False

    def test_machine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--machine", "huge"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.parametrize("kernel", ["reference", "fast"])
    def test_kernel_accepts_registered_kernels(self, kernel):
        args = build_parser().parse_args(["fig6", "--kernel", kernel])
        assert args.kernel == kernel

    @pytest.mark.parametrize("kernel", ["auto", "batched", "vector"])
    def test_kernel_rejects_removed_kernels(self, kernel, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--kernel", kernel])
        assert "'reference', 'fast'" in capsys.readouterr().err

    def test_expand_all_covers_every_registered_command(self):
        assert _expand("all") == command_names()
        assert _expand("fig6") == ("fig6",)


class TestList:
    def test_list_prints_catalog(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        for name in command_names():
            assert name in captured.out
        assert "[grid" in captured.out
        assert "[report]" in captured.out

    def test_command_required_without_list(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchmarkValidation:
    def test_unknown_benchmark_fails_fast_with_valid_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6", "--benchmarks", "DEDUP,NOPE"])
        captured = capsys.readouterr()
        assert "'NOPE'" in captured.err
        assert "BARNES" in captured.err  # valid names are spelled out


class TestFastCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "Architectural Parameter" in captured.out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        captured = capsys.readouterr()
        assert "BARNES" in captured.out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        captured = capsys.readouterr()
        assert "13.5 KB" in captured.out

    def test_paper_machine_table1(self, capsys):
        assert main(["table1", "--machine", "paper"]) == 0
        captured = capsys.readouterr()
        assert "64 @ 1 GHz" in captured.out


class TestSimulationCommands:
    """One small end-to-end CLI run (kept tiny for speed)."""

    def test_fig6_restricted(self, capsys):
        assert main([
            "fig6", "--scale", "0.05", "--benchmarks", "DEDUP",
        ]) == 0
        captured = capsys.readouterr()
        assert "Figure 6" in captured.out
        assert "DEDUP" in captured.out

    def test_breakdown(self, capsys):
        assert main([
            "breakdown", "--scale", "0.05", "--benchmarks", "DEDUP",
        ]) == 0
        captured = capsys.readouterr()
        assert "energy components" in captured.out
        assert "legend:" in captured.out

    def test_cache_stats_reported(self, capsys):
        store = ResultStore.memory()
        assert main(
            ["fig6", "--scale", "0.05", "--benchmarks", "DEDUP"], store=store
        ) == 0
        captured = capsys.readouterr()
        assert "result-store:" in captured.err
        assert store.misses == 7  # the seven comparison schemes


class TestAllDeduplicates:
    """`all` performs each unique (scheme, benchmark, config, seed,
    scale) simulation at most once — the ResultStore acceptance check."""

    SCALE = 0.05
    BENCH = "DEDUP"

    def _unique_grid_points(self):
        setup = ExperimentSetup.small(scale=self.SCALE, seed=1)
        probe = ResultStore.memory()
        keys = set()
        total = 0
        for name in command_names():
            command = get_command(name)
            if not command.is_grid:
                continue
            spec = command.build(setup, [self.BENCH])
            for point in spec.points:
                keys.add(probe.key_for(point.fingerprint(setup)))
                total += 1
        return keys, total

    def test_each_unique_simulation_runs_once(self, capsys):
        unique_keys, total_points = self._unique_grid_points()
        store = ResultStore.memory()
        assert main([
            "all", "--scale", str(self.SCALE), "--benchmarks", self.BENCH,
        ], store=store) == 0
        # fig1 caches its run-length profile through the same store: one
        # counted (payload) lookup for the single benchmark, a miss on
        # this first run.
        assert store.misses == len(unique_keys) + 1
        assert store.hits == total_points - len(unique_keys)
        assert store.hits > 0  # the figures genuinely share points
        captured = capsys.readouterr()
        assert "Figure 9a" in captured.out
        assert "Best RT by geomean EDP" in captured.out

    def test_second_invocation_served_from_disk(self, tmp_path, capsys):
        argv = ["fig9", "--scale", str(self.SCALE), "--benchmarks", self.BENCH]
        cold = ResultStore(tmp_path / "cache")
        warm = ResultStore(tmp_path / "cache")
        assert main(argv, store=cold) == 0
        assert main(argv, store=warm) == 0
        capsys.readouterr()
        assert cold.misses > 0 and cold.hits == 0
        assert warm.misses == 0
        assert warm.hit_rate() == 1.0
        assert warm.disk_hits == cold.misses


class TestUnifiedSurface:
    """One documented CLI; the old module paths forward with a pointer."""

    def test_store_maintenance_dispatches_through_main(
        self, tmp_path, capsys
    ):
        store_root = tmp_path / "cache"
        cold = ResultStore(store_root)
        assert main(
            ["fig9", "--scale", "0.02", "--benchmarks", "DEDUP"], store=cold
        ) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store_root)]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out and str(store_root) in stats_out
        assert main(["store", "purge", "--store", str(store_root)]) == 0
        assert "purged" in capsys.readouterr().out
        assert main(["store", "stats", "--store", str(store_root)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_old_module_spelling_is_gone(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = os.environ.copy()
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
