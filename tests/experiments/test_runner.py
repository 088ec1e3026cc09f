"""Experiment runner: trace caching, ASR search, matrices."""

import pytest

from repro.common.params import MachineConfig
from repro.experiments.runner import (
    ExperimentSetup,
    run_matrix,
    run_one,
)
from repro.experiments.spec import ExperimentSpec, RunPoint, execute_spec


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(MachineConfig.small(), scale=0.08, seed=2)


class TestSetup:
    def test_trace_cache_reuses_objects(self, setup):
        first = setup.trace_for("DEDUP")
        second = setup.trace_for("DEDUP")
        assert first is second

    def test_small_factory(self):
        setup = ExperimentSetup.small(scale=0.5)
        assert setup.config.num_cores == 16
        assert setup.scale == 0.5


class TestRunOne:
    def test_returns_energy_breakdown(self, setup):
        result = run_one(setup, "S-NUCA", "DEDUP")
        assert result.scheme == "S-NUCA"
        assert result.benchmark == "DEDUP"
        assert result.total_energy > 0
        assert result.completion_time > 0
        assert "DRAM" in result.energy_breakdown

    def test_config_override(self, setup):
        tuned = setup.config.with_overrides(replication_threshold=5)
        result = run_one(setup, "Locality", "DEDUP", config=tuned)
        assert result.stats is not None
        # The machine reaches the run as the point's overrides.
        eager = setup.config.with_overrides(replication_threshold=1)
        point = RunPoint("Locality", "DEDUP",
                         config_overrides={"replication_threshold": 1})
        spec = ExperimentSpec("tuned", (point,))
        direct = run_one(setup, "Locality", "DEDUP", config=eager)
        assert execute_spec(spec, setup).result_for(point).stats == direct.stats
        assert run_one(setup, "Locality", "DEDUP").stats != direct.stats

    def test_locality_uses_scaled_directory_energy(self, setup):
        snuca = run_one(setup, "S-NUCA", "DEDUP")
        locality = run_one(setup, "RT-3", "DEDUP")
        # Both ran; the locality breakdown includes the 1.2x directory scale
        # (hard to compare directly, but the component must be present).
        assert "Directory" in locality.energy_breakdown
        assert locality.energy_breakdown["Directory"] > 0


class TestASRSearch:
    def test_asr_reports_chosen_level(self, setup):
        result = run_one(setup, "ASR", "PATRICIA")
        assert result.asr_level in (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_asr_label_triggers_search(self, setup):
        result = run_one(setup, "ASR", "PATRICIA")
        assert result.asr_level is not None

    def test_explicit_level_skips_search(self, setup, monkeypatch):
        import repro.experiments.parallel as parallel_module

        runs = []
        original = parallel_module.simulate

        def counting(engine, traces):
            runs.append(engine)
            return original(engine, traces)

        monkeypatch.setattr(parallel_module, "simulate", counting)
        result = run_one(setup, "ASR", "PATRICIA", replication_level=0.25)
        assert len(runs) == 1, "an explicit level must not search"
        # The level that ran is reported, as the process pool reports it.
        assert result.asr_level == 0.25

    def test_best_level_minimizes_edp(self, setup):
        best = run_one(setup, "ASR", "PATRICIA")
        best_edp = best.total_energy * best.completion_time
        for level in (0.0, 1.0):
            other = run_one(setup, "ASR", "PATRICIA", replication_level=level)
            other_edp = other.total_energy * other.completion_time
            assert best_edp <= other_edp * 1.0001


class TestRunMatrix:
    def test_matrix_shape(self, setup):
        results = run_matrix(setup, ["S-NUCA", "RT-3"], ["DEDUP", "BARNES"])
        assert set(results) == {"DEDUP", "BARNES"}
        assert set(results["DEDUP"]) == {"S-NUCA", "RT-3"}

    def test_generator_schemes_cover_every_benchmark(self, setup):
        """A one-shot iterable must not be exhausted after the first row."""
        results = run_matrix(
            setup, (scheme for scheme in ("S-NUCA", "RT-3")), ["DEDUP", "BARNES"]
        )
        assert set(results["BARNES"]) == {"S-NUCA", "RT-3"}
