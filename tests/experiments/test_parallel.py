"""Parallel experiment runner: equivalence with the sequential path."""

import pytest

from repro.common.params import MachineConfig
from repro.experiments.parallel import RunSpec, execute_spec_parallel, run_specs
from repro.experiments.runner import ExperimentSetup, run_matrix
from repro.experiments.spec import ExperimentSpec, RunPoint, execute_spec
from repro.experiments.store import ResultStore


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(MachineConfig.small(), scale=0.08, seed=3)


def grid(schemes, benchmarks):
    """The (benchmark x scheme) grid as an anonymous spec."""
    return ExperimentSpec("matrix", tuple(
        RunPoint(scheme=scheme, benchmark=benchmark)
        for benchmark in benchmarks
        for scheme in schemes
    ))


class TestRunSpecs:
    def test_single_spec_runs_inline(self, setup):
        spec = RunSpec("S-NUCA", "DEDUP", setup.config, setup.scale, setup.seed)
        (result,) = run_specs([spec])
        assert result.scheme == "S-NUCA"
        assert result.completion_time > 0

    def test_order_preserved(self, setup):
        specs = [
            RunSpec("S-NUCA", "DEDUP", setup.config, setup.scale, setup.seed),
            RunSpec("RT-3", "DEDUP", setup.config, setup.scale, setup.seed),
        ]
        results = run_specs(specs, max_workers=1)
        assert [r.scheme for r in results] == ["S-NUCA", "RT-3"]

    def test_scheme_kwargs_applied(self, setup):
        spec = RunSpec(
            "ASR", "PATRICIA", setup.config, setup.scale, setup.seed,
            scheme_kwargs=(("replication_level", 0.75),),
        )
        (result,) = run_specs([spec])
        assert result.asr_level == 0.75


class TestMatrixEquivalence:
    def test_parallel_matches_sequential(self, setup):
        schemes = ("S-NUCA", "RT-3")
        benchmarks = ("DEDUP", "BARNES")
        sequential = run_matrix(setup, schemes, benchmarks)
        parallel = execute_spec_parallel(
            grid(schemes, benchmarks), setup, ResultStore.memory(),
            max_workers=1,
        )
        for benchmark in benchmarks:
            for scheme in schemes:
                seq = sequential[benchmark][scheme]
                par = parallel[benchmark][scheme]
                assert seq.completion_time == par.completion_time
                assert seq.total_energy == pytest.approx(par.total_energy)

    def test_asr_level_search_in_parallel(self, setup):
        matrix = execute_spec_parallel(
            grid(("ASR",), ("PATRICIA",)), setup, ResultStore.memory(),
            max_workers=1,
        )
        result = matrix["PATRICIA"]["ASR"]
        assert result.asr_level in (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_process_pool_path(self, setup):
        """Exercise the real multiprocess path on a tiny matrix."""
        matrix = execute_spec(
            grid(("S-NUCA", "RT-3"), ("DEDUP",)), setup, max_workers=2
        )
        assert matrix["DEDUP"]["S-NUCA"].completion_time > 0
        assert matrix["DEDUP"]["RT-3"].completion_time > 0

    def test_pool_stores_what_sequential_stores(self, setup):
        """The store holds the same payload whichever executor ran a
        point first: stats, energy and ``asr_level`` — including an ASR
        point with an explicit level, which skips the search."""
        spec = ExperimentSpec("payloads", (
            RunPoint("RT-3", "DEDUP"),
            RunPoint("ASR", "DEDUP"),
            RunPoint("ASR", "DEDUP", scheme_kwargs={"replication_level": 0.5},
                     label="ASR-0.5"),
        ))
        sequential = execute_spec(spec, setup)
        pooled = execute_spec(spec, setup, max_workers=2)
        for point in spec.points:
            seq = sequential.result_for(point)
            par = pooled.result_for(point)
            assert seq.stats == par.stats, point
            assert seq.energy_breakdown == par.energy_breakdown, point
            assert seq.asr_level == par.asr_level, point
        pinned = sequential.result_for(spec.points[-1])
        assert pinned.asr_level == 0.5


class TestExecuteSpecParallel:
    def test_store_hits_skip_simulation(self, setup):
        store = ResultStore.memory()
        spec = ExperimentSpec("par", (RunPoint("S-NUCA", "DEDUP"),))
        sequential = execute_spec(spec, setup, store=store)
        parallel = execute_spec_parallel(spec, setup, store, max_workers=1)
        assert store.misses == 1 and store.hits == 1
        assert (
            parallel["DEDUP"]["S-NUCA"].completion_time
            == sequential["DEDUP"]["S-NUCA"].completion_time
        )

    def test_duplicate_addresses_simulated_once(self, setup):
        store = ResultStore.memory()
        spec = ExperimentSpec(
            "dupes",
            (
                RunPoint("RT-3", "DEDUP", label="first"),
                RunPoint("RT-3", "DEDUP", label="second"),
            ),
        )
        results = execute_spec_parallel(spec, setup, store, max_workers=1)
        # Same accounting as the sequential executor: one miss, one hit.
        assert store.misses == 1 and store.hits == 1
        assert results["DEDUP"]["first"] is results["DEDUP"]["second"]


class TestCommitAsCompleted:
    """Each point is stored once all of its specs are in, so a run that
    fails part-way keeps the points it finished."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_last_spec_keeps_earlier_points(self, setup, workers):
        store = ResultStore.memory()
        spec = ExperimentSpec("partial", (
            RunPoint("S-NUCA", "DEDUP"),
            RunPoint("ASR", "DEDUP"),
            RunPoint("NO-SUCH-SCHEME", "DEDUP"),
        ))
        with pytest.raises(Exception, match="NO-SUCH-SCHEME"):
            execute_spec_parallel(spec, setup, store, max_workers=workers)
        kept = [
            store.get(store.key_for(point.fingerprint(setup))) is not None
            for point in spec.points
        ]
        assert kept == [True, True, False]
        # A rerun without the failing point is served from the store.
        resumed = execute_spec(ExperimentSpec("resume", spec.points[:2]), setup,
                               store=store)
        sequential = execute_spec(ExperimentSpec("fresh", spec.points[:2]), setup)
        for point in spec.points[:2]:
            assert resumed.result_for(point).stats == sequential.result_for(point).stats
            assert (resumed.result_for(point).asr_level
                    == sequential.result_for(point).asr_level)
