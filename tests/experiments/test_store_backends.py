"""JsonDirBackend: the on-disk persistence behind ResultStore."""

import pytest

from repro.common.params import MachineConfig
from repro.experiments.runner import ExperimentSetup, run_one
from repro.experiments.store import (
    CACHE_ENV_VAR,
    JsonDirBackend,
    ResultStore,
)


@pytest.fixture(scope="module")
def result():
    setup = ExperimentSetup(MachineConfig.small(), scale=0.05, seed=5)
    return run_one(setup, "S-NUCA", "DEDUP")


KEY = "a" * 64
OTHER = "b" * 64


class TestEntries:
    def test_load_unknown_key_is_none(self, tmp_path):
        assert JsonDirBackend(tmp_path / "flat").load(KEY) is None

    def test_store_load_roundtrip(self, tmp_path):
        payload = {"scheme": "X", "value": 1.25}
        backend = JsonDirBackend(tmp_path / "flat")
        assert backend.store(KEY, payload)
        assert dict(backend.load(KEY)) == payload
        assert [path.name for path in (tmp_path / "flat").iterdir()] == [
            f"{KEY}.json"
        ]


class TestSharedDirectory:
    """A store shared across processes and hosts is a plain directory."""

    def test_retired_shared_prefix_names_the_plain_spelling(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "s"
        monkeypatch.setenv(CACHE_ENV_VAR, f"shared:{target}")
        with pytest.raises(ValueError) as excinfo:
            ResultStore.from_env()
        assert f"{CACHE_ENV_VAR}={target}" in str(excinfo.value)
        # Nothing was created under either spelling.
        assert list(tmp_path.iterdir()) == []


class TestResultRoundtrip:
    def test_shared_backend_roundtrips_results_exactly(self, tmp_path, result):
        writer = ResultStore(tmp_path / "s")
        assert writer.put(KEY, result)
        reader = ResultStore(tmp_path / "s")
        loaded = reader.get(KEY)
        assert loaded is not None
        assert loaded.stats.completion_time == result.stats.completion_time
        assert loaded.energy_breakdown == result.energy_breakdown
        assert reader.hits == 1 and reader.disk_hits == 1


class TestSizeBound:
    """The store has no size bound: it keeps every entry until purged."""

    def test_unbounded_backend_never_evicts(self, tmp_path):
        backend = JsonDirBackend(tmp_path)
        pad = "x" * 2000
        for index in range(10):
            assert backend.store(f"{index:02d}" + "0" * 62, {"id": index, "pad": pad})
        assert backend.stats().entries == 10
        assert backend.load("00" + "0" * 62)["id"] == 0


class TestMaintenance:
    def test_purge_reports_what_was_removed(self, tmp_path):
        backend = JsonDirBackend(tmp_path)
        backend.store(KEY, {"v": 1})
        backend.store(OTHER, {"v": 2})
        removed = backend.purge()
        assert removed.entries == 2
        assert removed.total_bytes > 0
        assert backend.stats().entries == 0

    def test_stats_describe_mentions_location(self, tmp_path):
        backend = JsonDirBackend(tmp_path)
        backend.store(KEY, {"v": 1})
        line = backend.stats().describe()
        assert str(tmp_path) in line
        assert "1 entries" in line

    def test_torn_entry_reads_as_miss(self, tmp_path):
        backend = JsonDirBackend(tmp_path)
        backend.store(KEY, {"v": 1, "pad": "x" * 100})
        path = tmp_path / f"{KEY}.json"
        path.write_text(path.read_text()[:10])
        assert backend.load(KEY) is None

