"""StoreBackend protocol: pluggable persistence behind ResultStore."""

import json

import pytest

from repro.common.params import MachineConfig
from repro.experiments.runner import ExperimentSetup, run_one
from repro.experiments.store import (
    CACHE_ENV_VAR,
    CACHE_MAX_MB_ENV_VAR,
    JsonDirBackend,
    MemoryBackend,
    ResultStore,
    StoreBackend,
    max_bytes_from_env,
)


@pytest.fixture(scope="module")
def result():
    setup = ExperimentSetup(MachineConfig.small(), scale=0.05, seed=5)
    return run_one(setup, "S-NUCA", "DEDUP")


KEY = "a" * 64
OTHER = "b" * 64


class TestProtocol:
    def test_all_backends_satisfy_the_protocol(self, tmp_path):
        for backend in (
            MemoryBackend(),
            JsonDirBackend(tmp_path / "flat"),
        ):
            assert isinstance(backend, StoreBackend)

    def test_persistence_flags(self, tmp_path):
        assert not MemoryBackend().persistent
        assert JsonDirBackend(tmp_path).persistent

    def test_load_unknown_key_is_none(self, tmp_path):
        for backend in (
            MemoryBackend(),
            JsonDirBackend(tmp_path / "flat"),
        ):
            assert backend.load(KEY) is None

    def test_store_load_delete_roundtrip(self, tmp_path):
        payload = {"scheme": "X", "value": 1.25}
        for backend in (
            MemoryBackend(),
            JsonDirBackend(tmp_path / "flat"),
        ):
            assert backend.store(KEY, payload)
            assert dict(backend.load(KEY)) == payload
            assert list(backend.keys()) == [KEY]
            assert backend.delete(KEY)
            assert backend.load(KEY) is None
            assert not backend.delete(KEY)


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
    def _fill(self, backend, count, size=2000):
        pad = "x" * size
        for index in range(count):
            key = f"{index:02d}" + "0" * 62
            assert backend.store(key, {"id": index, "pad": pad})

    def test_lru_eviction_keeps_store_under_bound(self, tmp_path):
        backend = JsonDirBackend(tmp_path, max_bytes=8000)
        self._fill(backend, 10)
        assert backend.stats().total_bytes <= 8000
        assert backend.evictions > 0

    def test_unbounded_backend_never_evicts(self, tmp_path):
        backend = JsonDirBackend(tmp_path)
        self._fill(backend, 10)
        assert backend.stats().entries == 10
        assert backend.evictions == 0

    def test_read_refreshes_recency(self, tmp_path):
        import os
        import time

        backend = JsonDirBackend(tmp_path, max_bytes=7000)
        self._fill(backend, 3)
        first = "00" + "0" * 62
        # Age every entry, then touch the first: it must survive the
        # eviction wave that a new write triggers.
        stale = time.time() - 3600
        for path in tmp_path.glob("*.json"):
            os.utime(path, (stale, stale))
        assert backend.load(first) is not None
        self._fill(backend, 1)
        assert backend.load(first) is not None

    def test_max_mb_env_var(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_MAX_MB_ENV_VAR, "2")
        assert max_bytes_from_env() == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        store = ResultStore.from_env()
        assert store.backend.max_bytes == 2 * 1024 * 1024

    def test_malformed_max_mb_ignored(self, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_MB_ENV_VAR, "not-a-number")
        assert max_bytes_from_env() is None


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


class TestCustomBackendPluggability:
    def test_result_store_accepts_any_backend(self, result):
        class CountingBackend(MemoryBackend):
            def __init__(self):
                super().__init__()
                self.stores = 0

            def store(self, key, payload):
                self.stores += 1
                json.dumps(payload)  # must be JSON-serializable
                return super().store(key, payload)

        backend = CountingBackend()
        store = ResultStore(backend=backend)
        store.put(KEY, result)
        assert backend.stores == 1
        fresh = ResultStore(backend=backend)
        assert fresh.get(KEY) is not None
