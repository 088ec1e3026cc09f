"""The ``python -m repro trace`` command group."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.workloads.imports import TraceImportError
from repro.workloads.io import load_trace_set


def _synthesize(tmp_path, fmt, cores=4, records=60, seed=3):
    out = tmp_path / f"cap.{fmt}"
    assert main([
        "trace", "synthesize-fixture", "--format", fmt,
        "--cores", str(cores), "--records", str(records),
        "--seed", str(seed), "--out", str(out),
    ]) == 0
    return out


class TestSynthesizeFixture:
    @pytest.mark.parametrize("fmt", ["champsim", "din", "csv"])
    def test_each_format_imports_back(self, tmp_path, fmt, capsys):
        capture = _synthesize(tmp_path, fmt)
        npz = tmp_path / f"{fmt}.npz"
        assert main([
            "trace", "import", str(capture), "--cores", "4",
            "--out", str(npz),
        ]) == 0
        out = capsys.readouterr().out
        assert "synthesized" in out and "imported" in out
        traces = load_trace_set(npz)
        assert traces.num_cores == 4
        assert traces.provenance["format"] == fmt
        traces.validate_coverage()

    def test_unsupported_core_count_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "trace", "synthesize-fixture", "--format", "csv",
                "--cores", "5", "--out", str(tmp_path / "x.csv"),
            ])


class TestImport:
    def test_format_override_beats_detection(self, tmp_path):
        # A .csv extension with din content: --format din must win.
        capture = tmp_path / "odd.csv"
        capture.write_text("0 0x1000\n1 0x1040\n")
        npz = tmp_path / "odd.npz"
        assert main([
            "trace", "import", str(capture), "--format", "din",
            "--out", str(npz),
        ]) == 0
        assert load_trace_set(npz).provenance["format"] == "din"

    def test_name_option(self, tmp_path):
        capture = tmp_path / "cap.csv"
        capture.write_text("0,0,R,4\n")
        npz = tmp_path / "named.npz"
        assert main([
            "trace", "import", str(capture), "--name", "mytrace",
            "--out", str(npz),
        ]) == 0
        assert load_trace_set(npz).name == "mytrace"

    def test_malformed_capture_surfaces_location(self, tmp_path):
        capture = tmp_path / "bad.csv"
        capture.write_text("0,5,R,4\n0,1,R,5\n")
        with pytest.raises(TraceImportError, match=r"bad\.csv:2"):
            main([
                "trace", "import", str(capture),
                "--out", str(tmp_path / "bad.npz"),
            ])


class TestBinaryImport:
    def test_champsim_bin_fixture_imports_back(self, tmp_path, capsys):
        capture = tmp_path / "cap.trace.xz"
        assert main([
            "trace", "synthesize-fixture", "--format", "champsim-bin",
            "--cores", "4", "--records", "50", "--out", str(capture),
        ]) == 0
        npz = tmp_path / "bin.npz"
        assert main([
            "trace", "import", str(capture), "--cores", "4",
            "--out", str(npz),
        ]) == 0
        traces = load_trace_set(npz)
        assert traces.provenance["format"] == "champsim-bin"
        assert traces.num_cores == 4
        assert traces.total_accesses() == 200
        traces.validate_coverage()

    def test_max_inst_caps_the_import(self, tmp_path):
        capture = tmp_path / "cap.trace.xz"
        main([
            "trace", "synthesize-fixture", "--format", "champsim-bin",
            "--cores", "4", "--records", "50", "--out", str(capture),
        ])
        npz = tmp_path / "capped.npz"
        assert main([
            "trace", "import", str(capture), "--cores", "4",
            "--max-inst", "30", "--out", str(npz),
        ]) == 0
        traces = load_trace_set(npz)
        assert traces.total_accesses() == 30
        assert traces.provenance["max_records"] == 30


class TestSimulate:
    def _capture(self, tmp_path, records=80):
        capture = tmp_path / "cap.trace.xz"
        main([
            "trace", "synthesize-fixture", "--format", "champsim-bin",
            "--cores", "4", "--records", str(records), "--out", str(capture),
        ])
        return capture

    def _json_line(self, capsys):
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    def test_streamed_and_materialized_digests_agree(self, tmp_path, capsys):
        capture = self._capture(tmp_path)
        assert main([
            "trace", "simulate", str(capture), "--cores", "4", "--json",
        ]) == 0
        streamed = self._json_line(capsys)
        assert main([
            "trace", "simulate", str(capture), "--cores", "4",
            "--no-stream", "--json",
        ]) == 0
        materialized = self._json_line(capsys)
        assert streamed["streamed"] and not materialized["streamed"]
        assert streamed["stats_sha256"] == materialized["stats_sha256"]
        assert streamed["records"] == materialized["records"] == 320
        assert streamed["max_rss_kib"] > 0
        assert streamed["completion_time"] == materialized["completion_time"]

    def test_archive_path_and_chunk_knob(self, tmp_path, capsys):
        capture = self._capture(tmp_path)
        npz = tmp_path / "cap.npz"
        main(["trace", "import", str(capture), "--cores", "4",
              "--out", str(npz)])
        capsys.readouterr()
        assert main([
            "trace", "simulate", str(npz), "--stream", "--chunk", "16",
            "--json",
        ]) == 0
        streamed = self._json_line(capsys)
        assert main(["trace", "simulate", str(npz), "--json"]) == 0
        plain = self._json_line(capsys)
        assert streamed["stats_sha256"] == plain["stats_sha256"]

    def test_kernel_and_scheme_options(self, tmp_path, capsys):
        capture = self._capture(tmp_path, records=40)
        capsys.readouterr()
        for kernel in ("reference", "fast"):
            assert main([
                "trace", "simulate", str(capture), "--cores", "4",
                "--scheme", "S-NUCA", "--kernel", kernel, "--json",
            ]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["stats_sha256"] == lines[1]["stats_sha256"]
        assert {line["kernel"] for line in lines} == {"reference", "fast"}

    def test_max_inst_budget(self, tmp_path, capsys):
        capture = self._capture(tmp_path)
        assert main([
            "trace", "simulate", str(capture), "--cores", "4",
            "--max-inst", "100", "--json",
        ]) == 0
        assert self._json_line(capsys)["records"] == 100

    def test_text_capture_rejected_with_hint(self, tmp_path):
        text = tmp_path / "cap.csv"
        text.write_text("0,0,R,4\n")
        with pytest.raises(SystemExit, match="imported first"):
            main(["trace", "simulate", str(text)])

    def test_human_readable_output(self, tmp_path, capsys):
        capture = self._capture(tmp_path, records=40)
        assert main([
            "trace", "simulate", str(capture), "--cores", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "streamed" in out and "stats sha256:" in out


class TestInspect:
    def test_summarizes_an_archive(self, tmp_path, capsys):
        capture = _synthesize(tmp_path, "csv")
        npz = tmp_path / "t.npz"
        main(["trace", "import", str(capture), "--out", str(npz)])
        capsys.readouterr()
        assert main(["trace", "inspect", str(npz)]) == 0
        out = capsys.readouterr().out
        assert "cores:    4" in out
        assert "regions:" in out
        assert "provenance:" in out
        assert "source_sha256" in out


class TestForwarding:
    def test_experiments_group_forwards(self, capsys):
        assert main(["experiments", "--list"]) == 0
        assert "Registered experiments" in capsys.readouterr().out

    def test_testing_group_forwards(self, tmp_path, capsys):
        assert main([
            "testing", "csv-roundtrip", "--cases", "1", "--seed", "2",
            "--workdir", str(tmp_path / "rt"),
        ]) == 0
        assert "1 exact, 0 diverged" in capsys.readouterr().out

    def test_unknown_group_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_lists_every_group(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        out = capsys.readouterr().out
        for group in ("experiments", "testing", "trace"):
            assert group in out


class TestFixtureRoundTripExactness:
    def test_csv_fixture_reimports_identically(self, tmp_path):
        """The conformance contract: synthesize → import → the .npz and
        a re-saved copy carry identical arrays."""
        from repro.workloads.io import save_trace_set

        capture = _synthesize(tmp_path, "csv")
        npz = tmp_path / "a.npz"
        main(["trace", "import", str(capture), "--out", str(npz)])
        first = load_trace_set(npz)
        second = load_trace_set(save_trace_set(first, tmp_path / "b.npz"))
        assert first.regions == second.regions
        assert first.provenance == second.provenance
        for a, b in zip(first.cores, second.cores):
            assert np.array_equal(a.types, b.types)
            assert np.array_equal(a.lines, b.lines)
            assert np.array_equal(a.gaps, b.gaps)
