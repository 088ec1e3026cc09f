"""Unit tests for the randomized-profile differential fuzzer and its CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.common.params import MachineConfig
from repro.testing import fuzz
from repro.testing.differential import DifferentialMismatch


class TestCaseDerivation:
    def test_cases_are_deterministic_in_the_seed(self):
        assert fuzz.make_case(7) == fuzz.make_case(7)
        assert fuzz.make_case(7) != fuzz.make_case(8)

    def test_iter_cases_spans_distinct_seeds(self):
        cases = list(fuzz.iter_cases(5, seed=100))
        assert [case.case_seed for case in cases] == [100, 101, 102, 103, 104]
        assert len({case.profile.name for case in cases}) == 5

    def test_random_profiles_are_always_valid(self):
        """BenchmarkProfile validates mixes/patterns in __post_init__, so
        construction succeeding is the assertion."""
        for seed in range(200):
            profile = fuzz.random_profile(random.Random(seed), name=f"P{seed}")
            total = (
                profile.f_ifetch + profile.f_private + profile.f_shared_ro
                + profile.f_shared_rw + profile.f_migratory
            )
            assert 0.99 <= total <= 1.01

    def test_bundle_round_trip(self):
        case = fuzz.make_case(42)
        restored = fuzz.FuzzCase.from_bundle(
            json.loads(json.dumps(case.to_bundle()))
        )
        assert restored == case

    def test_bundle_records_the_machine(self):
        """A failure found under --machine small must replay on the same
        machine: the bundle carries it, and legacy bundles default to
        tiny."""
        case = fuzz.make_case(13, machine="small")
        bundle = case.to_bundle()
        assert bundle["machine"] == "small"
        restored = fuzz.FuzzCase.from_bundle(bundle)
        assert restored.machine == "small"
        assert restored.config().num_cores == MachineConfig.small().num_cores
        legacy = {key: value for key, value in bundle.items() if key != "machine"}
        assert fuzz.FuzzCase.from_bundle(legacy).machine == "tiny"

    def test_fractional_cases_flip_gap_integrality(self):
        """Every flagged case must actually exercise the per-record
        Compute path: the half-cycle offset makes *all* cores'
        gaps fractional regardless of the profile's mean_gap (including
        mean_gap=0, where halving would have left them integral)."""
        fractional_cases = [
            case for case in fuzz.iter_cases(40, seed=0) if case.fractional_gaps
        ]
        assert fractional_cases
        for case in fractional_cases[:3]:
            traces = fuzz.build_case_traces(case, MachineConfig.tiny())
            assert all(
                not decoded.gaps_integral for decoded in traces.decoded()
            )


class TestRunFuzz:
    def test_small_session_passes_and_reports(self):
        report = fuzz.run_fuzz(3, seed=11)
        assert report.ok
        assert len(report.passed) == 3
        assert "3 passed, 0 failed" in report.summary()

    def test_failure_writes_repro_bundle(self, tmp_path, monkeypatch):
        case = fuzz.make_case(5)

        def always_diverges(*args, **kwargs):
            raise DifferentialMismatch([], context="injected")

        monkeypatch.setattr(fuzz, "run_case", always_diverges)
        report = fuzz.run_fuzz(1, seed=5, out_dir=tmp_path)
        assert not report.ok
        bundle_path = tmp_path / f"case-{case.case_seed}.json"
        assert bundle_path.is_file()
        bundle = json.loads(bundle_path.read_text())
        assert bundle["case_seed"] == 5
        assert "error" in bundle
        assert fuzz.FuzzCase.from_bundle(bundle) == case


class TestCsvRoundtripFuzz:
    def test_randomized_trace_sets_survive_csv_exactly(self, tmp_path):
        failures = fuzz.run_csv_roundtrip_fuzz(4, seed=21, workdir=tmp_path)
        assert failures == []
        # Passing cases clean up their intermediate captures: only
        # diverging ones may remain for artifact upload.
        assert list(tmp_path.glob("case-*.csv.gz")) == []
        assert list(tmp_path.glob("case-*.error")) == []

    def test_divergence_is_reported_and_leaves_a_note(self, tmp_path,
                                                      monkeypatch):
        def always_diverges(case, workdir):
            raise AssertionError("injected divergence")

        monkeypatch.setattr(fuzz, "csv_roundtrip_case", always_diverges)
        failures = fuzz.run_csv_roundtrip_fuzz(2, seed=3, workdir=tmp_path)
        assert len(failures) == 2
        assert "injected divergence" in failures[0]
        notes = sorted(tmp_path.glob("case-*.error"))
        assert len(notes) == 2
        assert "injected divergence" in notes[0].read_text()

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.testing.cli import main

        assert main([
            "csv-roundtrip", "--cases", "2", "--seed", "6",
            "--workdir", str(tmp_path / "work"),
        ]) == 0
        assert "2 exact, 0 diverged" in capsys.readouterr().out


class TestCli:
    def test_fuzz_cli_exits_zero_on_success(self, capsys):
        from repro.testing.cli import main

        assert main(["verify-kernels", "--fuzz", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 passed, 0 failed" in out

    def test_repro_cli_replays_bundle(self, tmp_path, capsys):
        from repro.testing.cli import main

        case = fuzz.make_case(9)
        bundle = case.to_bundle()
        bundle_path = tmp_path / "case-9.json"
        bundle_path.write_text(json.dumps(bundle))
        assert main(["verify-kernels", "--repro", str(bundle_path)]) == 0
        assert "no longer diverges" in capsys.readouterr().out

    def test_kernel_filter_is_honored(self):
        from repro.testing.cli import main

        assert main(
            ["verify-kernels", "--fuzz", "1", "--seed", "4", "--kernels", "fast"]
        ) == 0

    def test_unknown_subcommand_rejected(self):
        from repro.testing.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])
