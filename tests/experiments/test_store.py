"""Content-addressed ResultStore: hashing, accounting, disk round-trip."""

import json

import pytest

from repro.common.params import MachineConfig
from repro.experiments.runner import ExperimentSetup, run_one
from repro.experiments.spec import RunPoint
from repro.experiments.store import (
    _TMP_HOST,
    CACHE_ENV_VAR,
    ResultStore,
    decode_result,
    default_cache_dir,
    encode_result,
    fingerprint_key,
)


def dead_pid() -> int:
    """A reaped child's pid: a guaranteed-dead writer stamp."""
    import subprocess

    child = subprocess.Popen(["true"])
    child.wait()
    return child.pid


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(MachineConfig.small(), scale=0.05, seed=2)


@pytest.fixture(scope="module")
def result(setup):
    return run_one(setup, "RT-3", "DEDUP")


class TestKeying:
    def test_key_is_stable_and_hex(self):
        fingerprint = {"scheme": "RT-3", "benchmark": "DEDUP", "seed": 1}
        key = fingerprint_key(fingerprint)
        assert key == fingerprint_key(dict(reversed(list(fingerprint.items()))))
        assert len(key) == 64
        int(key, 16)  # hex digest

    def test_different_fingerprints_different_keys(self):
        first = fingerprint_key({"scheme": "RT-3", "seed": 1})
        second = fingerprint_key({"scheme": "RT-3", "seed": 2})
        assert first != second


class TestAccounting:
    def test_get_put_counts_and_memoizes(self, result):
        store = ResultStore.memory()
        assert store.get("key") is None
        assert store.put("key", result) is False  # memory only: not durable
        assert store.get("key") is result
        assert (store.hits, store.misses, store.disk_hits) == (1, 1, 0)
        assert store.hit_rate() == 0.5

    def test_idle_store_reports_zero_rate(self):
        store = ResultStore.memory()
        assert store.hit_rate() == 0.0
        assert "0 hits" in store.describe()


class TestDiskRoundTrip:
    def test_exact_round_trip(self, result):
        payload = json.loads(json.dumps(encode_result(result)))
        restored = decode_result(payload)
        assert restored.scheme == result.scheme
        assert restored.benchmark == result.benchmark
        assert restored.asr_level == result.asr_level
        assert restored.energy_breakdown == result.energy_breakdown
        assert restored.total_energy == result.total_energy  # bit-exact floats
        assert restored.completion_time == result.completion_time
        assert restored.stats.counters == result.stats.counters
        assert restored.stats.energy_counts == result.stats.energy_counts
        assert restored.stats.latency == result.stats.latency
        assert restored.stats.miss_status == result.stats.miss_status
        assert restored.stats.core_finish == result.stats.core_finish

    def test_persisted_across_store_instances(self, tmp_path, result):
        first = ResultStore(tmp_path / "cache")
        assert first.get("deadbeef") is None
        first.put("deadbeef", result)

        second = ResultStore(tmp_path / "cache")
        restored = second.get("deadbeef")
        assert restored is not None
        assert second.disk_hits == 1
        assert restored.completion_time == result.completion_time
        assert restored.stats.counters == result.stats.counters

    def test_corrupt_file_is_a_miss(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("cafe", result)
        (tmp_path / "cafe.json").write_text("{not json", encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get("cafe") is None
        assert fresh.misses == 1

    def test_memory_store_touches_no_disk(self, tmp_path, result, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ResultStore.memory()
        store.put("beef", result)
        assert list(tmp_path.iterdir()) == []


class TestEnvironmentControls:
    def test_env_path_selects_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "here"))
        store = ResultStore.from_env()
        assert store.root == tmp_path / "here"

    @pytest.mark.parametrize("value", ["0", "off", "none", "OFF", "false"])
    def test_env_disables_disk(self, value, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert ResultStore.from_env().root is None

    def test_default_location_used_when_unset(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert ResultStore.from_env().root == default_cache_dir()

    @pytest.mark.parametrize("value", ["", "   ", "\t"])
    def test_empty_value_falls_back_to_default(self, value, monkeypatch):
        """An empty/whitespace value is treated as unset (it used to
        disable persistence): ``REPRO_RESULT_CACHE= cmd`` and unset-var
        interpolation mean "no opinion", and it must in particular never
        resolve to Path("") — the current working directory."""
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        store = ResultStore.from_env()
        assert store.root == default_cache_dir()
        assert str(store.root) != "."

    def test_surrounding_whitespace_is_stripped_from_paths(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CACHE_ENV_VAR, f"  {tmp_path / 'padded'}  ")
        assert ResultStore.from_env().root == tmp_path / "padded"


class TestConcurrentWriters:
    """Regression: the fixed ``<key>.json.tmp`` temp name let two
    ``--parallel`` invocations sharing one cache directory interleave
    writes and ``os.replace`` a torn payload."""

    def test_tmp_names_are_unique_per_writer_and_write(self, tmp_path):
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)
        names = {
            first.backend._tmp_path_for("cafe"),
            first.backend._tmp_path_for("cafe"),
            second.backend._tmp_path_for("cafe"),
        }
        assert len(names) == 3
        for name in names:
            assert name.name.startswith("cafe.json.")
            assert name.suffix == ".tmp"

    def test_interleaved_writers_never_tear_the_payload(
        self, tmp_path, result, monkeypatch
    ):
        """Serialize the historical failure: writer B re-creates (truncates)
        the temp file after writer A has written it but before A's rename.
        With per-writer temp names the schedule is harmless."""
        import repro.experiments.store as store_module

        writer_a = ResultStore(tmp_path)
        writer_b = ResultStore(tmp_path)
        real_replace = store_module.os.replace
        replaced = []

        def delayed_replace(src, dst):
            # A's rename runs only after B's full write+rename completed.
            if not replaced:
                replaced.append(src)
                writer_b.put("cafe", result)
            real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "replace", delayed_replace)
        writer_a.put("cafe", result)
        payload = json.loads((tmp_path / "cafe.json").read_text(encoding="utf-8"))
        assert payload["scheme"] == result.scheme  # parseable, not torn
        fresh = ResultStore(tmp_path)
        assert fresh.get("cafe") is not None
        assert list(tmp_path.glob("*.tmp")) == []

    def test_stale_tmp_litter_is_swept_on_open(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("cafe", result)
        (tmp_path / "dead.json.tmp").write_text("{torn", encoding="utf-8")
        (tmp_path / f"beef.json.{_TMP_HOST}.{dead_pid()}.3.tmp").write_text(
            "{torn", encoding="utf-8"
        )
        # Foreign files in a shared directory are not the store's to sweep.
        (tmp_path / "notes.tmp").write_text("keep me", encoding="utf-8")
        reopened = ResultStore(tmp_path)
        assert list(tmp_path.glob("*.json.tmp")) == []
        assert list(tmp_path.glob("*.json.*.tmp")) == []
        assert (tmp_path / "notes.tmp").read_text(encoding="utf-8") == "keep me"
        # Real payloads survive the sweep.
        assert reopened.get("cafe") is not None

    def test_sweep_spares_in_flight_files_of_live_writers(self, tmp_path):
        """A concurrent invocation's pid-stamped temp file is an
        in-flight write, not litter — sweeping it would silently drop
        that writer's persistence (its os.replace fails)."""
        import os

        in_flight = tmp_path / f"cafe.json.{_TMP_HOST}.{os.getpid()}.7.tmp"
        in_flight.write_text("{partial", encoding="utf-8")
        ResultStore(tmp_path)
        assert in_flight.exists()

    def test_sweep_spares_other_hosts_in_flight_files(self, tmp_path):
        """On a directory shared across hosts, a pid from another host
        says nothing about liveness here: its temp file may be that
        host's in-flight write and must survive this host's sweep."""
        pid = dead_pid()
        foreign = tmp_path / f"cafe.json.{_TMP_HOST}-elsewhere.{pid}.7.tmp"
        foreign.write_text("{partial", encoding="utf-8")
        ResultStore(tmp_path)
        assert foreign.exists()

    def test_open_on_missing_directory_is_harmless(self, tmp_path):
        store = ResultStore(tmp_path / "not-yet-created")
        assert store.get("cafe") is None


class TestInvalidation:
    def test_config_change_misses(self, setup, tmp_path, result):
        store = ResultStore(tmp_path)
        base_point = RunPoint("RT-3", "DEDUP")
        tuned_point = RunPoint(
            "RT-3", "DEDUP", config_overrides={"cluster_size": 4}
        )
        store.put(store.key_for(base_point.fingerprint(setup)), result)
        assert store.get(store.key_for(tuned_point.fingerprint(setup))) is None
        assert store.get(store.key_for(base_point.fingerprint(setup))) is not None
