"""Figure 1 run-length profiles cached through the ResultStore."""

import pytest

from repro.common.params import MachineConfig
from repro.common.types import LineClass
from repro.experiments.fig1_runlength import (
    profile_fingerprint,
    render_fig1,
    run_fig1,
)
from repro.experiments.runner import ExperimentSetup
from repro.experiments.store import ResultStore
from repro.sim.profiler import (
    PROFILE_VERSION,
    decode_profile,
    encode_profile,
    profile_run_lengths,
)


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(MachineConfig.small(), scale=0.05, seed=4)


class TestCodec:
    def test_roundtrip_is_exact(self, setup):
        traces = setup.trace_for("DEDUP")
        profile = profile_run_lengths(setup.config, traces)
        rebuilt = decode_profile(encode_profile(profile))
        assert rebuilt.benchmark == profile.benchmark
        assert rebuilt.mass == profile.mass
        assert rebuilt.fractions() == profile.fractions()

    def test_version_skew_decodes_to_none(self):
        payload = {"profile_version": PROFILE_VERSION + 1,
                   "benchmark": "X", "mass": []}
        assert decode_profile(payload) is None

    def test_malformed_payload_decodes_to_none(self):
        assert decode_profile({"benchmark": "X"}) is None
        assert decode_profile({
            "profile_version": PROFILE_VERSION,
            "benchmark": "X",
            "mass": [["NOT_A_CLASS", "[1-2]", 3]],
        }) is None


class TestFingerprint:
    def test_distinct_from_simulation_addresses(self, setup):
        payload = profile_fingerprint("DEDUP", setup)
        assert payload["kind"] == "fig1-runlength"
        assert payload["profile_version"] == PROFILE_VERSION

    def test_setup_parameters_enter_the_address(self, setup):
        other = ExperimentSetup(setup.config, scale=0.06, seed=4)
        store = ResultStore.memory()
        assert store.key_for(profile_fingerprint("DEDUP", setup)) \
            != store.key_for(profile_fingerprint("DEDUP", other))
        assert store.key_for(profile_fingerprint("DEDUP", setup)) \
            != store.key_for(profile_fingerprint("FFT", setup))


class TestStoreServed:
    def test_second_run_is_served_from_the_store(self, setup, tmp_path):
        cold = ResultStore(tmp_path / "cache")
        first = run_fig1(setup, ["DEDUP"], store=cold)
        assert cold.misses == 1 and cold.hits == 0

        warm = ResultStore(tmp_path / "cache")
        second = run_fig1(setup, ["DEDUP"], store=warm)
        assert warm.misses == 0 and warm.hits == 1 and warm.disk_hits == 1

        assert second["DEDUP"].mass == first["DEDUP"].mass
        assert render_fig1(second) == render_fig1(first)

    def test_no_store_still_works(self, setup):
        profiles = run_fig1(setup, ["DEDUP"])
        assert profiles["DEDUP"].mass
        assert sum(profiles["DEDUP"].mass.values()) > 0
        assert set(cls for cls, _bucket in profiles["DEDUP"].mass) \
            <= set(LineClass)

    def test_stale_version_reprofiles(self, setup, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = store.key_for(profile_fingerprint("DEDUP", setup))
        store.put_payload(key, {"profile_version": PROFILE_VERSION + 1,
                                "benchmark": "DEDUP", "mass": []})
        fresh = ResultStore(tmp_path / "cache")
        profiles = run_fig1(setup, ["DEDUP"], store=fresh)
        # The skewed payload is not served; the profile is rebuilt and
        # the good payload overwrites the stale one.
        assert profiles["DEDUP"].mass
        warm = ResultStore(tmp_path / "cache")
        assert decode_profile(warm.get_payload(key)) is not None
