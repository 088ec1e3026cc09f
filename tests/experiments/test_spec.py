"""Declarative experiment API: RunPoints, specs, registry, executor."""

import pytest

from repro.common.params import MachineConfig
from repro.experiments import ablations, comparison, fig9_limitedk, fig10_cluster
from repro.experiments import rt_sweep
from repro.experiments.results import ResultSet
from repro.experiments.runner import ExperimentSetup, run_one
from repro.experiments.spec import (
    ExperimentSpec,
    RunPoint,
    command_names,
    execute_spec,
    get_command,
    registered_commands,
    resolve_benchmarks,
    validate_benchmarks,
)
from repro.experiments.store import ResultStore

#: Every legacy CLI command and whether it maps to a spec grid.
LEGACY_COMMANDS = {
    "fig1": False,
    "fig6": True,
    "fig7": True,
    "fig8": True,
    "fig9": True,
    "fig10": True,
    "rt-sweep": True,
    "replacement": True,
    "oracle": True,
    "tla": True,
    "strategy": True,
    "organization": True,
    "breakdown": True,
    "table1": False,
    "table2": False,
    "storage": False,
    "summary": True,
}


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(MachineConfig.small(), scale=0.05, seed=2)


class TestRunPoint:
    def test_frozen_and_hashable(self):
        point = RunPoint("RT-3", "DEDUP")
        assert hash(point) == hash(RunPoint("RT-3", "DEDUP"))
        with pytest.raises(AttributeError):
            point.scheme = "S-NUCA"

    def test_label_defaults_to_scheme(self):
        assert RunPoint("VR", "DEDUP").col_label == "VR"
        assert RunPoint("VR", "DEDUP", label="victim").col_label == "victim"

    def test_overrides_canonicalized(self):
        by_dict = RunPoint("RT-3", "DEDUP",
                           config_overrides={"cluster_size": 4,
                                             "replication_threshold": 3})
        by_pairs = RunPoint("RT-3", "DEDUP",
                            config_overrides=(("replication_threshold", 3),
                                              ("cluster_size", 4)))
        assert by_dict == by_pairs
        assert hash(by_dict) == hash(by_pairs)

    def test_effective_config_applies_overrides(self, setup):
        point = RunPoint("Locality", "DEDUP",
                         config_overrides=(("classifier_k", 5),))
        config = point.effective_config(setup.config)
        assert config.classifier_k == 5
        plain = RunPoint("Locality", "DEDUP")
        assert plain.effective_config(setup.config) is setup.config


class TestFingerprint:
    def test_stable_across_calls(self, setup):
        point = RunPoint("RT-3", "DEDUP", config_overrides={"cluster_size": 4})
        store = ResultStore.memory()
        first = store.key_for(point.fingerprint(setup))
        second = store.key_for(point.fingerprint(setup))
        assert first == second

    def test_label_and_kernel_do_not_change_the_address(self, setup):
        store = ResultStore.memory()
        base = store.key_for(RunPoint("RT-3", "DEDUP").fingerprint(setup))
        labeled = store.key_for(
            RunPoint("RT-3", "DEDUP", label="probe").fingerprint(setup)
        )
        reference = store.key_for(
            RunPoint("RT-3", "DEDUP", kernel="reference").fingerprint(setup)
        )
        assert base == labeled == reference

    def test_config_scale_seed_invalidate(self, setup):
        store = ResultStore.memory()
        base = store.key_for(RunPoint("RT-3", "DEDUP").fingerprint(setup))
        overridden = store.key_for(
            RunPoint("RT-3", "DEDUP",
                     config_overrides={"cluster_size": 4}).fingerprint(setup)
        )
        rescaled = store.key_for(
            RunPoint("RT-3", "DEDUP", scale=0.1).fingerprint(setup)
        )
        reseeded = store.key_for(
            RunPoint("RT-3", "DEDUP", seed=9).fingerprint(setup)
        )
        assert len({base, overridden, rescaled, reseeded}) == 4

    def test_scheme_kwargs_enter_the_address(self, setup):
        store = ResultStore.memory()
        base = store.key_for(RunPoint("RT-3", "DEDUP").fingerprint(setup))
        oracle = store.key_for(
            RunPoint("RT-3", "DEDUP",
                     scheme_kwargs={"oracle_lookup": True}).fingerprint(setup)
        )
        assert base != oracle

    def test_asr_search_space_enters_the_address(self, setup):
        store = ResultStore.memory()
        narrowed = ExperimentSetup(
            setup.config, scale=setup.scale, seed=setup.seed,
            asr_levels=(0.25,),
        )
        search_point = RunPoint("ASR", "DEDUP")
        assert store.key_for(search_point.fingerprint(setup)) != store.key_for(
            search_point.fingerprint(narrowed)
        )
        # An explicit level skips the search: the space is irrelevant.
        pinned = RunPoint("ASR", "DEDUP",
                          scheme_kwargs={"replication_level": 0.5})
        assert store.key_for(pinned.fingerprint(setup)) == store.key_for(
            pinned.fingerprint(narrowed)
        )
        # Non-ASR points never depend on the ASR search space.
        plain = RunPoint("RT-3", "DEDUP")
        assert store.key_for(plain.fingerprint(setup)) == store.key_for(
            plain.fingerprint(narrowed)
        )


class TestBenchmarkValidation:
    def test_unknown_name_lists_valid_benchmarks(self):
        with pytest.raises(ValueError) as excinfo:
            validate_benchmarks(["DEDUP", "NOPE"])
        message = str(excinfo.value)
        assert "'NOPE'" in message
        assert "BARNES" in message  # the valid list is spelled out

    def test_resolve_defaults(self):
        assert resolve_benchmarks(None, ("DEDUP",)) == ["DEDUP"]
        assert resolve_benchmarks(["BARNES"], ("DEDUP",)) == ["BARNES"]

    def test_spec_builders_validate_up_front(self, setup):
        with pytest.raises(ValueError):
            comparison.comparison_spec(setup, ["BOGUS"])


class TestRegistry:
    def test_every_legacy_command_is_registered(self):
        names = command_names()
        for name in LEGACY_COMMANDS:
            assert name in names

    def test_grid_commands_expose_spec_builders(self, setup):
        for name, is_grid in LEGACY_COMMANDS.items():
            command = get_command(name)
            assert command.is_grid == is_grid
            if is_grid:
                spec = command.build(setup, ["DEDUP"])
                assert isinstance(spec, ExperimentSpec)
                assert spec.points
                assert all(point.benchmark == "DEDUP" for point in spec.points)

    def test_descriptions_present(self):
        for command in registered_commands():
            assert command.description

    def test_grid_shapes_match_legacy_loops(self, setup):
        fig9 = fig9_limitedk.fig9_spec(setup)
        assert len(fig9.points) == len(fig9_limitedk.FIG9_BENCHMARKS) * len(
            fig9_limitedk.K_VALUES
        )
        assert fig9.baseline == f"k={setup.config.num_cores}"
        fig10 = fig10_cluster.fig10_spec(setup)
        sizes = fig10_cluster.cluster_sizes(setup.config.num_cores)
        assert fig10.labels() == tuple(f"C-{size}" for size in sizes)
        sweep = rt_sweep.rt_sweep_spec(setup)
        assert sweep.labels() == rt_sweep.RT_VALUES
        tla = ablations.tla_spec(setup, ["DEDUP"])
        assert tla.labels() == ("modified_lru", "lru", "tla")


class TestExecuteSpec:
    def test_matches_run_one(self, setup):
        spec = ExperimentSpec(
            "unit", (RunPoint("S-NUCA", "DEDUP"), RunPoint("RT-3", "DEDUP"))
        )
        results = execute_spec(spec, setup)
        direct = run_one(setup, "S-NUCA", "DEDUP")
        assert results["DEDUP"]["S-NUCA"].completion_time == direct.completion_time
        assert results["DEDUP"]["S-NUCA"].total_energy == direct.total_energy

    def test_duplicate_points_simulated_once(self, setup):
        store = ResultStore.memory()
        spec = ExperimentSpec(
            "dupes",
            (
                RunPoint("RT-3", "DEDUP", label="first"),
                RunPoint("RT-3", "DEDUP", label="second"),
            ),
        )
        results = execute_spec(spec, setup, store=store)
        assert store.misses == 1
        assert store.hits == 1
        assert results["DEDUP"]["first"] is results["DEDUP"]["second"]

    def test_store_reused_across_specs(self, setup):
        store = ResultStore.memory()
        spec = ExperimentSpec("one", (RunPoint("S-NUCA", "DEDUP"),))
        execute_spec(spec, setup, store=store)
        execute_spec(spec, setup, store=store)
        assert store.misses == 1
        assert store.hits == 1

    def test_per_point_seed_override(self, setup):
        spec = ExperimentSpec(
            "seeds",
            (
                RunPoint("S-NUCA", "DEDUP", label="seed-2"),
                RunPoint("S-NUCA", "DEDUP", seed=7, label="seed-7"),
            ),
        )
        results = execute_spec(spec, setup, store=ResultStore.memory())
        row = results["DEDUP"]
        assert row["seed-2"].completion_time != row["seed-7"].completion_time
