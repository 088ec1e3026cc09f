"""SimStats: counters, breakdowns and derived metrics."""

import json
import pickle
from collections import Counter

import pytest

from repro.common.types import MissStatus
from repro.energy.model import EnergyModel, EnergyParams
from repro.experiments.runner import RunResult
from repro.experiments.store import decode_result, encode_result
from repro.sim import stats as stat_names
from repro.sim.stats import LATENCY_BUCKETS, SimStats, Tally

STAT_MAPS = ("counters", "energy_counts", "latency", "miss_status")


@pytest.fixture
def stats():
    return SimStats(num_cores=4)


class TestMissBreakdown:
    def test_l1_hits_not_counted_as_misses(self, stats):
        stats.record_miss(MissStatus.L1_HIT)
        assert stats.l1_misses() == 0

    def test_breakdown_fractions(self, stats):
        for _ in range(6):
            stats.record_miss(MissStatus.LLC_REPLICA_HIT)
        for _ in range(3):
            stats.record_miss(MissStatus.LLC_HOME_HIT)
        stats.record_miss(MissStatus.OFF_CHIP_MISS)
        breakdown = stats.miss_breakdown()
        assert breakdown["LLC-Replica-Hits"] == pytest.approx(0.6)
        assert breakdown["LLC-Home-Hits"] == pytest.approx(0.3)
        assert breakdown["OffChip-Misses"] == pytest.approx(0.1)

    def test_fractions_sum_to_one(self, stats):
        for status in (MissStatus.LLC_REPLICA_HIT, MissStatus.LLC_HOME_HIT,
                       MissStatus.OFF_CHIP_MISS):
            stats.record_miss(status)
        assert sum(stats.miss_breakdown().values()) == pytest.approx(1.0)

    def test_empty_breakdown(self, stats):
        assert sum(stats.miss_breakdown().values()) == 0.0

    def test_offchip_miss_rate(self, stats):
        stats.record_miss(MissStatus.LLC_HOME_HIT)
        stats.record_miss(MissStatus.OFF_CHIP_MISS)
        assert stats.offchip_miss_rate() == pytest.approx(0.5)


class TestLatencyBuckets:
    def test_bucket_names_match_figure7(self):
        assert LATENCY_BUCKETS == (
            "Compute", "L1-Hit", "L1-To-LLC-Replica", "L1-To-LLC-Home",
            "LLC-Home-Waiting", "LLC-Home-To-Sharers", "LLC-Home-To-OffChip",
            "Synchronization",
        )

    def test_accumulation(self, stats):
        stats.add_latency(stat_names.COMPUTE, 10)
        stats.add_latency(stat_names.COMPUTE, 5)
        assert stats.latency_breakdown()["Compute"] == 15

    def test_all_buckets_present(self, stats):
        breakdown = stats.latency_breakdown()
        assert set(breakdown) == set(LATENCY_BUCKETS)


class TestEnergy:
    def test_energy_uses_supplied_model(self, stats):
        stats.energy_event("dram_read", 10)
        cheap = EnergyModel(EnergyParams(dram_access_pj=1.0))
        costly = EnergyModel(EnergyParams(dram_access_pj=100.0))
        assert stats.total_energy(costly) > stats.total_energy(cheap)

    def test_energy_delay_product(self, stats):
        stats.energy_event("dram_read", 1)
        stats.completion_time = 100.0
        assert stats.energy_delay_product() == pytest.approx(
            stats.total_energy() * 100.0
        )


class TestSummary:
    def test_summary_keys(self, stats):
        summary = stats.summary()
        assert set(summary) == {
            "completion_time", "energy_pj", "l1_misses",
            "replica_hit_fraction", "offchip_miss_rate",
        }


def _filled(stats):
    stats.bump("l1d_misses", 3)
    stats.energy_event("dram_read", 2)
    stats.add_latency(stat_names.COMPUTE, 12.5)
    stats.record_miss(MissStatus.OFF_CHIP_MISS)
    stats.completion_time = 42.0
    return stats


class TestTally:
    def test_fresh_stats_hold_tallies(self, stats):
        for name in STAT_MAPS:
            assert type(getattr(stats, name)) is Tally

    def test_store_loaded_stats_hold_tallies(self, stats):
        result = RunResult("RT-3", "DEDUP", _filled(stats), {"dram": 1.0})
        loaded = decode_result(json.loads(json.dumps(encode_result(result)))).stats
        for name in STAT_MAPS:
            assert type(getattr(loaded, name)) is Tally
            assert getattr(loaded, name) == getattr(stats, name)

    def test_missing_key_reads_zero_without_insert(self):
        tally = Tally()
        assert tally["absent"] == 0
        assert "absent" not in tally
        tally["present"] += 2
        assert dict(tally) == {"present": 2}

    def test_equality_ignores_zero_counts_both_ways(self):
        tally = Tally(a=1, b=0)
        counter = Counter(a=1, c=0)
        assert tally == counter
        assert counter == tally
        assert tally != Counter(a=2)

    def test_counter_behaviour_kept(self):
        tally = Tally(a=3, b=1)
        assert tally.most_common(1) == [("a", 3)]
        assert tally + Counter(b=1) == Counter(a=3, b=2)
        del tally["a"]
        assert dict(tally) == {"b": 1}
        with pytest.raises(KeyError):
            del tally["a"]

    def test_pickle_round_trip_keeps_type_and_contents(self, stats):
        restored = pickle.loads(pickle.dumps(_filled(stats)))
        for name in STAT_MAPS:
            assert type(getattr(restored, name)) is Tally
            assert dict(getattr(restored, name)) == dict(getattr(stats, name))

    def test_stores_use_the_dict_slot(self):
        # Counter's Python __delitem__ would force every item store
        # through a Python-level slot wrapper.
        assert Tally.__delitem__ is dict.__delitem__
        assert Tally.__setitem__ is dict.__setitem__


class TestSerialization:
    def test_to_dict_is_json_serializable(self, stats):
        stats.record_miss(MissStatus.LLC_HOME_HIT)
        stats.energy_event("dram_read", 2)
        stats.add_latency(stat_names.COMPUTE, 12)
        stats.completion_time = 42.0
        dump = stats.to_dict()
        text = json.dumps(dump)
        assert "LLC_HOME_HIT" in text

    def test_to_dict_contents(self, stats):
        stats.record_miss(MissStatus.OFF_CHIP_MISS)
        stats.completion_time = 10.0
        dump = stats.to_dict()
        assert dump["completion_time"] == 10.0
        assert dump["miss_status"]["OFF_CHIP_MISS"] == 1
        assert set(dump["latency_breakdown"]) == set(LATENCY_BUCKETS)
        assert dump["summary"]["completion_time"] == 10.0
