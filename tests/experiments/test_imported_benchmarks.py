"""Imported ``.npz`` traces as first-class experiment benchmarks."""

from __future__ import annotations

import pytest

from repro.common.params import MachineConfig
from repro.experiments.runner import ExperimentSetup
from repro.experiments.spec import (
    ExperimentSpec,
    RunPoint,
    execute_spec,
    validate_benchmarks,
)
from repro.experiments.store import ResultStore
from repro.workloads.benchmarks import build_trace, get_profile
from repro.workloads.io import save_trace_set


@pytest.fixture
def tiny_setup(tiny_config):
    return ExperimentSetup(tiny_config, scale=0.05, seed=4)


@pytest.fixture
def imported_npz(tmp_path, tiny_config):
    """A 4-core imported-style archive matching the tiny machine."""
    traces = build_trace(get_profile("DEDUP"), tiny_config, scale=0.05, seed=4)
    traces.provenance = {"format": "csv", "source": "cap.csv"}
    return save_trace_set(traces, tmp_path / "capture.npz")


class TestValidation:
    def test_existing_archive_accepted(self, imported_npz):
        name = f"imported:{imported_npz}"
        assert validate_benchmarks([name]) == [name]

    def test_missing_archive_rejected_with_hint(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist.*repro trace import"):
            validate_benchmarks([f"imported:{tmp_path}/nope.npz"])

    def test_catalog_error_mentions_imported_spelling(self):
        with pytest.raises(ValueError, match="imported:<path-to-npz>"):
            validate_benchmarks(["NOPE"])

    def test_mixed_catalog_and_imported(self, imported_npz):
        names = ["DEDUP", f"imported:{imported_npz}"]
        assert validate_benchmarks(names) == names


class TestTraceFor:
    def test_loads_the_archive(self, tiny_setup, imported_npz):
        traces = tiny_setup.trace_for(f"imported:{imported_npz}")
        assert traces.num_cores == 4
        assert traces.provenance["format"] == "csv"

    def test_memoized_per_setup(self, tiny_setup, imported_npz):
        name = f"imported:{imported_npz}"
        assert tiny_setup.trace_for(name) is tiny_setup.trace_for(name)

    def test_core_count_mismatch_fails_in_simulate(self, imported_npz):
        from repro.experiments.runner import run_one

        setup = ExperimentSetup(MachineConfig.small(), scale=0.05, seed=4)
        with pytest.raises(ValueError, match="4 cores but machine has 16"):
            run_one(setup, "S-NUCA", f"imported:{imported_npz}")


class TestStreamingThreshold:
    def test_small_archives_stay_materialized_by_default(
        self, tiny_setup, imported_npz, monkeypatch
    ):
        monkeypatch.delenv("REPRO_STREAM_THRESHOLD", raising=False)
        traces = tiny_setup.trace_for(f"imported:{imported_npz}")
        assert not getattr(traces, "is_streaming", False)

    def test_zero_threshold_streams_and_results_are_identical(
        self, tiny_config, imported_npz, monkeypatch
    ):
        from repro.experiments.runner import run_one

        name = f"imported:{imported_npz}"
        materialized = run_one(
            ExperimentSetup(tiny_config, scale=0.05, seed=4), "RT-3", name
        )
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "0")
        setup = ExperimentSetup(tiny_config, scale=0.05, seed=4)
        traces = setup.trace_for(name)
        assert traces.is_streaming
        setup.release_decoded(name)  # the streaming no-op surface
        streamed = run_one(setup, "RT-3", name)
        assert streamed.stats.to_dict() == materialized.stats.to_dict()

    def test_negative_threshold_never_streams(
        self, tiny_setup, imported_npz, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "-1")
        traces = tiny_setup.trace_for(f"imported:{imported_npz}")
        assert not getattr(traces, "is_streaming", False)


class TestContentAddressing:
    def _key(self, name, setup):
        point = RunPoint(scheme="S-NUCA", benchmark=name)
        return ResultStore.memory().key_for(point.fingerprint(setup))

    def test_moving_the_file_keeps_the_address(self, tmp_path, tiny_setup,
                                               imported_npz):
        moved = tmp_path / "elsewhere.npz"
        moved.write_bytes(imported_npz.read_bytes())
        assert self._key(f"imported:{imported_npz}", tiny_setup) == \
            self._key(f"imported:{moved}", tiny_setup)

    def test_rewriting_the_file_changes_the_address(self, tmp_path, tiny_setup,
                                                    tiny_config, imported_npz):
        before = self._key(f"imported:{imported_npz}", tiny_setup)
        other = build_trace(get_profile("BARNES"), tiny_config, scale=0.05, seed=9)
        save_trace_set(other, imported_npz)
        assert self._key(f"imported:{imported_npz}", tiny_setup) != before

    def test_scale_and_seed_do_not_split_the_address(self, imported_npz,
                                                     tiny_config):
        """An imported capture is fixed data: two setups differing only
        in scale/seed must share stored results for it."""
        a = ExperimentSetup(tiny_config, scale=0.05, seed=4)
        b = ExperimentSetup(tiny_config, scale=0.50, seed=9)
        name = f"imported:{imported_npz}"
        assert self._key(name, a) == self._key(name, b)
        assert self._key("DEDUP", a) != self._key("DEDUP", b)


class TestEndToEnd:
    def test_grid_executes_and_dedups_imported_points(self, tiny_setup,
                                                      imported_npz):
        name = f"imported:{imported_npz}"
        spec = ExperimentSpec(
            "imported-grid",
            points=(
                RunPoint(scheme="S-NUCA", benchmark=name),
                RunPoint(scheme="RT-3", benchmark=name),
                RunPoint(scheme="S-NUCA", benchmark=name, label="again"),
            ),
        )
        store = ResultStore.memory()
        results = execute_spec(spec, tiny_setup, store=store)
        assert store.misses == 2 and store.hits == 1
        assert set(results[name]) == {"S-NUCA", "RT-3", "again"}
        assert results[name]["S-NUCA"].stats.completion_time > 0

    def test_kernels_agree_on_imported_benchmarks(self, tiny_config,
                                                  imported_npz):
        from repro.experiments.runner import run_one

        name = f"imported:{imported_npz}"
        results = {
            kernel: run_one(
                ExperimentSetup(tiny_config, kernel=kernel), "RT-3", name
            )
            for kernel in ("reference", "fast")
        }
        reference = results.pop("reference")
        for kernel, result in results.items():
            assert result.stats.counters == reference.stats.counters, kernel
            assert result.stats.completion_time == reference.stats.completion_time

    def test_cli_runs_an_imported_benchmark(self, tmp_path, small_config,
                                            capsys):
        """`--benchmarks imported:<path>` flows through a registry grid
        command end to end (CLI default machine is small → 16 cores),
        including the Figure 1 profiler, which needs the inferred
        region map."""
        from repro.experiments.cli import main

        traces = build_trace(
            get_profile("DEDUP"), small_config, scale=0.05, seed=4
        )
        archive = save_trace_set(traces, tmp_path / "small.npz")
        name = f"imported:{archive}"
        assert main(["fig1", "--benchmarks", name, "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Figure 1" in captured.out
        assert name in captured.out

    def test_cli_rejects_missing_archive_fast(self, tmp_path, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["fig6", "--benchmarks", f"imported:{tmp_path}/absent.npz"])
        assert "does not exist" in capsys.readouterr().err

    def test_parallel_execution_matches_sequential(self, tiny_setup,
                                                   imported_npz):
        name = f"imported:{imported_npz}"
        spec = ExperimentSpec(
            "imported-parallel",
            points=(
                RunPoint(scheme="S-NUCA", benchmark=name),
                RunPoint(scheme="RT-3", benchmark=name),
            ),
        )
        sequential = execute_spec(spec, tiny_setup, store=ResultStore.memory())
        parallel = execute_spec(
            spec, tiny_setup, store=ResultStore.memory(), max_workers=2
        )
        for point in spec.points:
            a = sequential[name][point.col_label]
            b = parallel[name][point.col_label]
            assert a.stats.counters == b.stats.counters
            assert a.stats.completion_time == b.stats.completion_time
