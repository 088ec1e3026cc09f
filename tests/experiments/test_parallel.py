"""The grid executor's two run modes: in-process and process pool."""

import pytest

from repro.common.params import MachineConfig
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


class TestRunModes:
    def test_single_point_runs_inline(self, setup):
        point = RunPoint("S-NUCA", "DEDUP")
        result = execute_spec(ExperimentSpec("one", (point,)), setup,
                              max_workers=2).result_for(point)
        assert result.scheme == "S-NUCA"
        assert result.completion_time > 0

    def test_order_preserved(self, setup):
        spec = ExperimentSpec("order", (
            RunPoint("S-NUCA", "DEDUP"),
            RunPoint("RT-3", "DEDUP"),
        ))
        results = execute_spec(spec, setup, max_workers=1)
        assert [results.result_for(p).scheme for p in spec.points] == [
            "S-NUCA", "RT-3",
        ]

    def test_scheme_kwargs_applied(self, setup):
        point = RunPoint("ASR", "PATRICIA",
                         scheme_kwargs={"replication_level": 0.75})
        result = execute_spec(ExperimentSpec("kwargs", (point,)), setup,
                              max_workers=2).result_for(point)
        assert result.asr_level == 0.75


class TestMatrixEquivalence:
    def test_parallel_matches_sequential(self, setup):
        schemes = ("S-NUCA", "RT-3")
        benchmarks = ("DEDUP", "BARNES")
        sequential = run_matrix(setup, schemes, benchmarks)
        parallel = execute_spec(
            grid(schemes, benchmarks), setup, ResultStore.memory(),
            max_workers=2,
        )
        for benchmark in benchmarks:
            for scheme in schemes:
                seq = sequential[benchmark][scheme]
                par = parallel[benchmark][scheme]
                assert seq.completion_time == par.completion_time
                assert seq.total_energy == pytest.approx(par.total_energy)

    def test_asr_level_search_in_parallel(self, setup):
        matrix = execute_spec(
            grid(("ASR",), ("PATRICIA",)), setup, ResultStore.memory(),
            max_workers=2,
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


class TestStoreAccounting:
    def test_store_hits_skip_simulation(self, setup):
        store = ResultStore.memory()
        spec = ExperimentSpec("par", (RunPoint("S-NUCA", "DEDUP"),))
        sequential = execute_spec(spec, setup, store=store)
        parallel = execute_spec(spec, setup, store, max_workers=2)
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
        results = execute_spec(spec, setup, store, max_workers=2)
        # The repeat is a hit on the pending run: one miss, one hit.
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
            execute_spec(spec, setup, store, max_workers=workers)
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


class TestASRSearchRule:
    """Section 3.3: a searched ASR point is the lowest-EDP result among
    the explicit-level points, taking the first level on ties."""

    @pytest.fixture(scope="class")
    def small(self):
        return ExperimentSetup(MachineConfig.small(), scale=0.05, seed=3)

    def explicit_points(self, setup):
        return [
            RunPoint("ASR", "DEDUP", scheme_kwargs={"replication_level": level},
                     label=f"ASR-{level}")
            for level in setup.asr_levels
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_is_the_best_explicit_level(self, small, workers):
        assert small.asr_levels == (0.0, 0.25, 0.5, 0.75, 1.0)
        searched = RunPoint("ASR", "DEDUP")
        explicit = self.explicit_points(small)
        results = execute_spec(ExperimentSpec("asr-rule", (searched, *explicit)),
                               small, max_workers=workers)
        best, best_edp = None, float("inf")
        for point in explicit:
            candidate = results.result_for(point)
            edp = candidate.total_energy * candidate.completion_time
            if edp < best_edp:
                best, best_edp = candidate, edp
        found = results.result_for(searched)
        assert found.asr_level == best.asr_level
        assert found.stats == best.stats
        assert found.energy_breakdown == best.energy_breakdown

    def test_ties_keep_the_first_level(self, small, monkeypatch):
        """Every level returning the same statistics ties every EDP."""
        import repro.experiments.parallel as parallel_module

        original = parallel_module.simulate
        first = []

        def same_stats(engine, traces):
            if not first:
                first.append(original(engine, traces))
            return first[0]

        monkeypatch.setattr(parallel_module, "simulate", same_stats)
        searched = RunPoint("ASR", "DEDUP")
        explicit = self.explicit_points(small)
        results = execute_spec(ExperimentSpec("tie", (searched, *explicit)),
                               small, max_workers=1)
        edps = {results.result_for(point).total_energy
                * results.result_for(point).completion_time
                for point in explicit}
        assert len(edps) == 1
        assert results.result_for(searched).asr_level == small.asr_levels[0]


class TestTraceBuilds:
    """A process builds a (benchmark, machine, scale, seed) trace at
    most once per call, however many runs share it."""

    BENCHMARKS = ("DEDUP", "PATRICIA")

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.experiments.runner as runner_module

        calls = []
        original = runner_module.build_trace

        def counting(profile, *args):
            calls.append(profile.name)
            return original(profile, *args)

        monkeypatch.setattr(runner_module, "build_trace", counting)
        return calls

    @pytest.fixture
    def fresh(self):
        return ExperimentSetup(MachineConfig.small(), scale=0.05, seed=4)

    def test_in_process_builds_each_trace_once(self, builds, fresh):
        execute_spec(grid(("S-NUCA", "ASR"), self.BENCHMARKS), fresh,
                     max_workers=1)
        assert sorted(builds) == sorted(self.BENCHMARKS)

    def test_callers_prebuilt_traces_are_used(self, builds, fresh):
        for benchmark in self.BENCHMARKS:
            fresh.trace_for(benchmark)
        assert len(builds) == 2
        builds.clear()
        execute_spec(grid(("S-NUCA", "ASR"), self.BENCHMARKS), fresh,
                     max_workers=1)
        assert builds == []

    def test_pool_worker_builds_each_trace_once(self, builds, fresh):
        """One worker fed every run of the grid (what a pool of one
        worker would see) keeps its setups between runs."""
        from repro.experiments.parallel import _execute

        worker_setups: dict = {}
        runs = [run for point in grid(("S-NUCA", "ASR"), self.BENCHMARKS).points
                for run in point.expand(fresh)]
        assert len(runs) == 12
        for run in runs:
            _execute(run, worker_setups)
        assert sorted(builds) == sorted(self.BENCHMARKS)
