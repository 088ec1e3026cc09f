"""Real-trace ingestion: importers, region inference, malformed inputs."""

from __future__ import annotations

import gzip
import lzma

import numpy as np
import pytest

from repro.common.addr import Region
from repro.common.params import MachineConfig
from repro.common.types import AccessType, LineClass
from repro.schemes.factory import make_scheme
from repro.workloads.benchmarks import build_trace, get_profile
from repro.workloads.imports import (
    ImportOptions,
    TraceImportError,
    detect_format,
    export_champsim,
    export_csv,
    export_din,
    _coalesce,
    import_trace,
    infer_regions,
    is_imported_benchmark,
    imported_trace_path,
    regions_from_line_sets,
    sorted_unique,
    trace_content_hash,
)
from repro.workloads.trace import CoreTrace, TraceSet


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _core(types, lines, gaps=None):
    if gaps is None:
        gaps = [0] * len(types)
    return CoreTrace(
        types=np.array([int(t) for t in types], dtype=np.uint8),
        lines=np.array(lines, dtype=np.int64),
        gaps=np.array(gaps, dtype=np.uint16),
    )


R, W, I, B = (AccessType.READ, AccessType.WRITE,
              AccessType.IFETCH, AccessType.BARRIER)


class TestChampsimImport:
    def test_basic_records(self, tmp_path):
        path = _write(tmp_path, "t.champsim",
                      "0x400000 0x1000 0\n0x400004 0x1040 1\n")
        traces = import_trace(path)
        assert traces.num_cores == 1
        core = traces.cores[0]
        assert core.types.tolist() == [int(R), int(W)]
        assert core.lines.tolist() == [0x1000 >> 6, 0x1040 >> 6]
        assert core.gaps.tolist() == [0, 0]

    def test_round_robin_split(self, tmp_path):
        lines = "".join(f"0x400000 {addr:#x} 0\n"
                        for addr in range(0, 64 * 6, 64))
        path = _write(tmp_path, "t.champsim", lines)
        traces = import_trace(
            path, options=ImportOptions(num_cores=2, split="round-robin")
        )
        assert traces.cores[0].lines.tolist() == [0, 2, 4]
        assert traces.cores[1].lines.tolist() == [1, 3, 5]

    def test_blocks_split(self, tmp_path):
        lines = "".join(f"0x400000 {addr:#x} 0\n"
                        for addr in range(0, 64 * 6, 64))
        path = _write(tmp_path, "t.champsim", lines)
        traces = import_trace(
            path, options=ImportOptions(num_cores=2, split="blocks")
        )
        assert traces.cores[0].lines.tolist() == [0, 1, 2]
        assert traces.cores[1].lines.tolist() == [3, 4, 5]

    def test_blocks_split_uneven_covers_every_record(self, tmp_path):
        lines = "".join(f"0x400000 {addr:#x} 0\n"
                        for addr in range(0, 64 * 7, 64))
        path = _write(tmp_path, "t.champsim", lines)
        traces = import_trace(
            path, options=ImportOptions(num_cores=3, split="blocks")
        )
        flattened = [
            line for core in traces.cores for line in core.lines.tolist()
        ]
        assert flattened == [0, 1, 2, 3, 4, 5, 6]
        assert all(len(core) >= 2 for core in traces.cores)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "t.champsim",
                      "# a capture\n\n0x400000 0x1000 0\n")
        assert len(import_trace(path).cores[0]) == 1

    def test_decimal_addresses_accepted(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "4194304 128 1\n")
        assert import_trace(path).cores[0].lines.tolist() == [2]

    def test_line_bytes_shift(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "0x400000 0x100 0\n")
        traces = import_trace(path, options=ImportOptions(line_bytes=128))
        assert traces.cores[0].lines.tolist() == [2]


class TestDinImport:
    def test_type_codes(self, tmp_path):
        path = _write(tmp_path, "t.din", "0 0x1000\n1 0x1040\n2 0x2000\n")
        core = import_trace(path).cores[0]
        assert core.types.tolist() == [int(R), int(W), int(I)]

    def test_trailing_fields_ignored(self, tmp_path):
        path = _write(tmp_path, "t.din", "0 0x1000 extra stuff\n")
        assert len(import_trace(path).cores[0]) == 1

    def test_ifetch_lines_become_instruction_regions(self, tmp_path):
        path = _write(tmp_path, "t.din", "2 0x2000\n0 0x1000\n")
        traces = import_trace(path)
        assert traces.classify(0x2000 >> 6) == LineClass.INSTRUCTION
        assert traces.classify(0x1000 >> 6) == LineClass.PRIVATE

    def test_bare_hex_addresses_as_real_dinero_writes_them(self, tmp_path):
        """Classic din captures carry unprefixed (often zero-padded)
        hex addresses; `ffff03b0` must parse as hex, not be rejected."""
        path = _write(tmp_path, "t.din", "0 ffff03b0\n1 00401000\n")
        core = import_trace(path).cores[0]
        assert core.lines.tolist() == [0xFFFF03B0 >> 6, 0x00401000 >> 6]
        assert core.types.tolist() == [int(R), int(W)]


class TestCsvImport:
    def test_explicit_cores_and_gaps(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "core,tick,type,line\n"
                      "0,5,R,16\n"
                      "1,2,W,32\n"
                      "0,9,R,17\n")
        traces = import_trace(path)
        assert traces.num_cores == 2
        assert traces.cores[0].gaps.tolist() == [5, 4]
        assert traces.cores[1].gaps.tolist() == [2]
        assert traces.cores[0].lines.tolist() == [16, 17]

    def test_header_optional_and_case_insensitive(self, tmp_path):
        with_header = import_trace(
            _write(tmp_path, "a.csv", "CORE,TICK,TYPE,LINE\n0,0,r,4\n")
        )
        without = import_trace(_write(tmp_path, "b.csv", "0,0,R,4\n"))
        assert with_header.cores[0].lines.tolist() == without.cores[0].lines.tolist()

    def test_comment_before_header(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "# exported by tool X\ncore,tick,type,line\n0,0,R,4\n")
        assert len(import_trace(path).cores[0]) == 1

    def test_barriers_carried(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "0,1,R,4\n0,2,B,0\n1,1,W,4\n1,3,B,0\n")
        traces = import_trace(path)
        assert traces.cores[0].barrier_count() == 1
        assert traces.cores[1].barrier_count() == 1

    def test_sparse_core_ids_leave_empty_cores(self, tmp_path):
        """Inferred width is max id + 1; unmentioned cores stay empty
        (they finish at time zero in the simulator)."""
        path = _write(tmp_path, "t.csv", "2,0,R,4\n0,0,R,5\n")
        traces = import_trace(path)
        assert traces.num_cores == 3
        assert len(traces.cores[1]) == 0
        assert traces.cores[2].lines.tolist() == [4]

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("core,tick,type,line\n0,0,R,4\n")
        assert import_trace(path).cores[0].lines.tolist() == [4]

    def test_xz_transparent(self, tmp_path):
        path = tmp_path / "t.csv.xz"
        with lzma.open(path, "wt") as handle:
            handle.write("core,tick,type,line\n0,0,R,4\n1,0,W,9\n")
        traces = import_trace(path)
        assert traces.cores[0].lines.tolist() == [4]
        assert traces.cores[1].lines.tolist() == [9]


class TestMaxRecords:
    def test_caps_single_stream_imports(self, tmp_path):
        lines = "".join(f"0x400000 {hex(0x40 * (i + 1))} 0\n" for i in range(10))
        path = _write(tmp_path, "t.champsim", lines)
        traces = import_trace(
            path, options=ImportOptions(max_records=4, num_cores=2)
        )
        assert traces.total_accesses() == 4
        assert traces.provenance["max_records"] == 4

    def test_caps_csv_imports(self, tmp_path):
        rows = "".join(f"0,{i},R,{4 + i}\n" for i in range(10))
        path = _write(tmp_path, "t.csv", rows)
        traces = import_trace(path, options=ImportOptions(max_records=3))
        assert traces.total_accesses() == 3

    def test_unlimited_leaves_provenance_clean(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,0,R,4\n")
        traces = import_trace(path)
        assert "max_records" not in traces.provenance

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="max_records"):
            ImportOptions(max_records=0)


class TestFormatDetection:
    def test_by_extension(self, tmp_path):
        assert detect_format(_write(tmp_path, "a.csv", "0,0,R,4\n")) == "csv"
        assert detect_format(_write(tmp_path, "a.din", "0 0x10\n")) == "din"
        assert detect_format(
            _write(tmp_path, "a.champsim", "0x4 0x10 0\n")
        ) == "champsim"

    def test_gz_extension_sees_inner_format(self, tmp_path):
        path = tmp_path / "a.csv.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0,0,R,4\n")
        assert detect_format(path) == "csv"

    def test_by_content(self, tmp_path):
        assert detect_format(_write(tmp_path, "x.trace", "0,0,R,4\n")) == "csv"
        assert detect_format(_write(tmp_path, "y.trace", "2 0x40\n")) == "din"
        assert detect_format(
            _write(tmp_path, "z.trace", "0x400000 0x40 1\n")
        ) == "champsim"

    def test_din_with_trailing_columns_detects_as_din(self, tmp_path):
        """din rows may carry ignored trailing fields; the type-code
        first field must win over the three-field champsim rule, or a
        write record like '1 0x2000 0' silently imports as a read."""
        path = _write(tmp_path, "y.trace", "1 0x2000 0\n0 0x1000 0\n")
        assert detect_format(path) == "din"
        core = import_trace(path, fmt="auto").cores[0]
        assert core.types.tolist() == [int(W), int(R)]

    def test_undetectable_raises(self, tmp_path):
        path = _write(tmp_path, "w.trace", "one two three four five\n")
        with pytest.raises(TraceImportError, match="auto-detect"):
            detect_format(path)

    def test_import_auto_uses_detection(self, tmp_path):
        path = _write(tmp_path, "x.trace", "0,0,R,4\n")
        traces = import_trace(path, fmt="auto")
        assert traces.provenance["format"] == "csv"


class TestRegionInference:
    def test_private_shared_ro_rw_and_instruction(self):
        cores = [
            _core([R, W, R, I], [10, 11, 20, 40]),
            _core([R, R, R, I], [20, 21, 30, 40]),
        ]
        regions = dict(
            (line, cls) for region, cls in infer_regions(cores)
            for line in range(region.base, region.end)
        )
        assert regions[10] == LineClass.PRIVATE      # only core 0
        assert regions[11] == LineClass.PRIVATE      # written, single core
        assert regions[30] == LineClass.PRIVATE      # only core 1
        assert regions[20] == LineClass.SHARED_RO    # both cores, reads only
        assert regions[21] == LineClass.PRIVATE      # only core 1
        assert regions[40] == LineClass.INSTRUCTION  # fetched by both

    def test_shared_written_line_is_shared_rw(self):
        cores = [_core([W], [7]), _core([R], [7])]
        [(region, cls)] = infer_regions(cores)
        assert (region.base, region.size) == (7, 1)
        assert cls == LineClass.SHARED_RW

    def test_instruction_priority_over_data(self):
        cores = [_core([R, I], [5, 5]), _core([W], [5])]
        [(region, cls)] = infer_regions(cores)
        assert cls == LineClass.INSTRUCTION

    def test_consecutive_same_class_lines_coalesce(self):
        cores = [_core([R, R, R, R], [100, 101, 102, 200])]
        regions = infer_regions(cores)
        assert [(r.base, r.size) for r, _ in regions] == [(100, 3), (200, 1)]

    def test_barriers_do_not_enter_the_map(self):
        cores = [_core([R, B], [4, 0]), _core([R, B], [4, 0])]
        regions = infer_regions(cores)
        assert [(r.base, r.size) for r, _ in regions] == [(4, 1)]

    def test_coverage_validates_on_import(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,0,R,4\n0,1,W,900\n1,0,R,4\n")
        traces = import_trace(path)
        traces.validate_coverage()  # must not raise


def _sorted_unique_inputs():
    rng = np.random.default_rng(5)
    yield "empty", np.empty(0, dtype=np.int64)
    yield "one line", np.array([42], dtype=np.int64)
    # A hot set: 100K accesses over 64 lines, as a loop-heavy capture has.
    yield "hot set", rng.integers(1 << 20, (1 << 20) + 64, size=100_000)
    for trial in range(5):
        yield f"random {trial}", rng.integers(
            -(1 << 40), 1 << 40, size=rng.integers(1, 5000), dtype=np.int64
        )


class TestSortedUnique:
    @pytest.mark.parametrize(
        "lines", [lines for _name, lines in _sorted_unique_inputs()],
        ids=[name for name, _lines in _sorted_unique_inputs()],
    )
    def test_matches_np_unique(self, lines):
        expected = np.unique(lines)
        result = sorted_unique(lines)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    def test_region_map_matches_the_np_unique_inference(self):
        """infer_regions over sorted_unique sets gives the map np.unique gave."""
        rng = np.random.default_rng(9)
        cores = [
            _core(rng.choice([R, W, I], size=3000, p=[0.6, 0.2, 0.2]),
                  rng.integers(0, 1500, size=3000))
            for _core_id in range(4)
        ]
        per_core = [
            (np.asarray(core.types), np.asarray(core.lines)) for core in cores
        ]
        data = [np.unique(lines[(types == R) | (types == W)]) for types, lines in per_core]
        written = [np.unique(lines[types == W]) for types, lines in per_core]
        fetched = [np.unique(lines[types == I]) for types, lines in per_core]
        assert infer_regions(cores) == regions_from_line_sets(data, written, fetched)


def _coalesce_per_region(lines, classes):
    """The element-wise ``_coalesce`` the vectorized one replaced."""
    if lines.size == 0:
        return []
    breaks = np.flatnonzero((np.diff(lines) != 1) | (np.diff(classes) != 0))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [lines.size]))
    return [
        (
            Region(int(lines[start]), int(lines[end - 1] - lines[start] + 1)),
            LineClass(int(classes[start])),
        )
        for start, end in zip(starts, ends)
    ]


def _coalesce_inputs():
    rng = np.random.default_rng(11)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))
    yield "empty", empty
    yield "one line", (np.array([42]), np.array([int(LineClass.SHARED_RO)], dtype=np.uint8))
    yield "one class", (np.arange(5, 50), np.full(45, int(LineClass.PRIVATE), dtype=np.uint8))
    yield "gaps", (np.array([1, 2, 3, 7, 8, 20]), np.zeros(6, dtype=np.uint8))
    for trial in range(20):
        lines = np.unique(rng.integers(0, 400, size=rng.integers(1, 300)))
        classes = rng.integers(0, len(LineClass), size=lines.size).astype(np.uint8)
        if trial % 2:  # long same-class runs
            classes = np.sort(classes)
        yield f"random {trial}", (lines, classes)


class TestCoalesce:
    @pytest.mark.parametrize(
        "lines,classes",
        [case for _name, case in _coalesce_inputs()],
        ids=[name for name, _case in _coalesce_inputs()],
    )
    def test_matches_the_per_region_version(self, lines, classes):
        got = _coalesce(lines, classes)
        assert got == _coalesce_per_region(lines, classes)
        for region, line_class in got:
            assert type(region.base) is int and type(region.size) is int
            assert any(line_class is member for member in LineClass)


class TestProvenanceAndHash:
    def test_provenance_recorded(self, tmp_path):
        path = _write(tmp_path, "cap.csv", "0,0,R,4\n")
        traces = import_trace(path)
        prov = traces.provenance
        assert prov["format"] == "csv"
        assert prov["source"] == "cap.csv"
        assert prov["source_sha256"] == trace_content_hash(path)
        assert prov["records"] == 1

    def test_name_defaults_to_stem_and_is_overridable(self, tmp_path):
        path = _write(tmp_path, "cap.csv", "0,0,R,4\n")
        assert import_trace(path).name == "cap"
        named = import_trace(path, options=ImportOptions(name="mine"))
        assert named.name == "mine"

    def test_content_hash_tracks_content_not_path(self, tmp_path):
        a = _write(tmp_path, "a.npz", "same bytes")
        b = _write(tmp_path, "b.npz", "same bytes")
        c = _write(tmp_path, "c.npz", "different bytes")
        assert trace_content_hash(a) == trace_content_hash(b)
        assert trace_content_hash(a) != trace_content_hash(c)

    def test_imported_benchmark_names(self):
        assert is_imported_benchmark("imported:traces/x.npz")
        assert not is_imported_benchmark("BARNES")
        assert str(imported_trace_path("imported:traces/x.npz")) == "traces/x.npz"
        with pytest.raises(ValueError, match="empty path"):
            imported_trace_path("imported:")


class TestExporters:
    @pytest.fixture
    def synthetic(self, tiny_config):
        return build_trace(
            get_profile("DEDUP"), tiny_config, scale=0.05, seed=5
        )

    def test_csv_round_trip_exact(self, synthetic, tmp_path):
        path = export_csv(synthetic, tmp_path / "rt.csv")
        back = import_trace(path)
        for original, restored in zip(synthetic.cores, back.cores):
            assert np.array_equal(original.types, restored.types)
            assert np.array_equal(original.lines, restored.lines)
            assert np.array_equal(original.gaps, restored.gaps)

    def test_csv_gzip_round_trip(self, synthetic, tmp_path):
        path = export_csv(synthetic, tmp_path / "rt.csv.gz")
        back = import_trace(path)
        assert back.total_accesses() == synthetic.total_accesses()

    def test_champsim_rejects_barriers_and_ifetch(self, synthetic, tmp_path):
        with pytest.raises(ValueError, match="barrier"):
            export_champsim(synthetic, tmp_path / "x.champsim")
        cores = [_core([I], [4])]
        flat = TraceSet("i", cores, infer_regions(cores))
        with pytest.raises(ValueError, match="instruction"):
            export_champsim(flat, tmp_path / "y.champsim")

    def test_din_round_robin_reconstruction(self, tmp_path):
        cores = [_core([R, W, I], [1, 2, 3]), _core([W, R, I], [4, 5, 6])]
        traces = TraceSet("d", cores, infer_regions(cores))
        path = export_din(traces, tmp_path / "d.din")
        back = import_trace(path, options=ImportOptions(num_cores=2))
        for original, restored in zip(traces.cores, back.cores):
            assert np.array_equal(original.types, restored.types)
            assert np.array_equal(original.lines, restored.lines)

    def test_unequal_core_lengths_rejected(self, tmp_path):
        cores = [_core([R], [1]), _core([R, R], [2, 3])]
        traces = TraceSet("u", cores, infer_regions(cores))
        with pytest.raises(ValueError, match="unequal"):
            export_din(traces, tmp_path / "u.din")

    def test_csv_rejects_fractional_gaps_instead_of_truncating(self, tmp_path):
        cores = [CoreTrace(
            types=np.array([int(R), int(R)], dtype=np.uint8),
            lines=np.array([1, 2], dtype=np.int64),
            gaps=np.array([2.5, 0.5], dtype=np.float64),
        )]
        traces = TraceSet("f", cores, infer_regions(cores))
        with pytest.raises(ValueError, match="fractional compute gaps"):
            export_csv(traces, tmp_path / "f.csv")


class TestImportedTraceSimulates:
    def test_all_kernels_bit_identical(self, tmp_path, tiny_config):
        from repro.testing.differential import verify_kernels

        synthetic = build_trace(
            get_profile("BARNES"), tiny_config, scale=0.05, seed=3
        )
        path = export_csv(synthetic, tmp_path / "b.csv")
        imported = import_trace(path)
        verify_kernels(
            lambda: make_scheme("RT-3", tiny_config), imported,
            context="imported-csv",
        )


# ---------------------------------------------------------------------------
# Malformed-input suite: every importer raises a precise, located error
# ---------------------------------------------------------------------------

class TestMalformedChampsim:
    def test_truncated_line(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "0x400000 0x1000 0\n0x400004\n")
        with pytest.raises(TraceImportError, match=r"t\.champsim:2.*3 fields"):
            import_trace(path, fmt="champsim")

    def test_bad_is_write(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "0x400000 0x1000 2\n")
        with pytest.raises(TraceImportError, match="is_write must be 0 or 1"):
            import_trace(path, fmt="champsim")

    def test_non_integer_address(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "0x400000 xyz 0\n")
        with pytest.raises(TraceImportError, match="'xyz' is not an integer"):
            import_trace(path, fmt="champsim")

    def test_negative_address(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "0x400000 -64 0\n")
        with pytest.raises(TraceImportError, match="negative address"):
            import_trace(path, fmt="champsim")

    def test_empty_capture(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "# only comments\n")
        with pytest.raises(TraceImportError, match="no records"):
            import_trace(path, fmt="champsim")

    def test_empty_capture_blocks_split(self, tmp_path):
        path = _write(tmp_path, "t.champsim", "\n")
        with pytest.raises(TraceImportError, match="no records"):
            import_trace(
                path, fmt="champsim",
                options=ImportOptions(num_cores=2, split="blocks"),
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceImportError, match="no such capture"):
            import_trace(tmp_path / "absent.champsim", fmt="champsim")


class TestMalformedDin:
    def test_unknown_type_code(self, tmp_path):
        path = _write(tmp_path, "t.din", "7 0x1000\n")
        with pytest.raises(TraceImportError, match="unknown din access type 7"):
            import_trace(path, fmt="din")

    def test_truncated_line(self, tmp_path):
        path = _write(tmp_path, "t.din", "0\n")
        with pytest.raises(TraceImportError, match=r"t\.din:1.*at least 2"):
            import_trace(path, fmt="din")


class TestMalformedCsv:
    def test_truncated_row(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,0,R,4\n0,1,W\n")
        with pytest.raises(TraceImportError, match=r"t\.csv:2.*4 fields"):
            import_trace(path, fmt="csv")

    def test_non_monotonic_ticks(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,5,R,4\n0,3,R,5\n")
        with pytest.raises(TraceImportError, match="non-monotonic tick 3"):
            import_trace(path, fmt="csv")

    def test_monotonicity_is_per_core(self, tmp_path):
        # Core 1's tick 2 after core 0's tick 9 is fine: clocks are per core.
        path = _write(tmp_path, "t.csv", "0,9,R,4\n1,2,R,5\n")
        import_trace(path, fmt="csv")

    def test_unknown_type_letter(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,0,Q,4\n")
        with pytest.raises(TraceImportError, match="unknown access type 'Q'"):
            import_trace(path, fmt="csv")

    def test_core_id_beyond_declared_cores(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,0,R,4\n5,0,R,4\n")
        with pytest.raises(TraceImportError, match="core id 5 outside the declared 2"):
            import_trace(path, fmt="csv", options=ImportOptions(num_cores=2))

    def test_negative_core_id(self, tmp_path):
        path = _write(tmp_path, "t.csv", "-1,0,R,4\n")
        with pytest.raises(TraceImportError, match="negative core id"):
            import_trace(path, fmt="csv")

    def test_negative_tick(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,-2,R,4\n")
        with pytest.raises(TraceImportError, match="negative tick"):
            import_trace(path, fmt="csv")

    def test_empty_capture(self, tmp_path):
        path = _write(tmp_path, "t.csv", "core,tick,type,line\n")
        with pytest.raises(TraceImportError, match="no records"):
            import_trace(path, fmt="csv")

    def test_huge_core_id_rejected_instead_of_allocating(self, tmp_path):
        """Without a declared width, a garbage core id must fail fast —
        not grow four billion per-core buffers."""
        path = _write(tmp_path, "t.csv", "0,0,R,4\n4000000000,0,R,4\n")
        with pytest.raises(TraceImportError, match="exceeds the inference cap"):
            import_trace(path, fmt="csv")

    def test_empty_core_with_barriers_elsewhere(self, tmp_path):
        # Core 1 exists (declared) but has no records while core 0
        # carries a barrier: the TraceSet barrier invariant fails with a
        # located import error.
        path = _write(tmp_path, "t.csv", "0,0,R,4\n0,1,B,0\n")
        with pytest.raises(TraceImportError, match="barrier count"):
            import_trace(path, fmt="csv", options=ImportOptions(num_cores=2))

    def test_barrier_count_disagreement(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "0,0,R,4\n0,1,B,0\n1,0,R,4\n")
        with pytest.raises(TraceImportError, match="barrier count"):
            import_trace(path, fmt="csv")


class TestOptionValidation:
    def test_bad_split(self):
        with pytest.raises(ValueError, match="unknown split"):
            ImportOptions(split="shuffle")

    def test_bad_line_bytes(self):
        with pytest.raises(ValueError, match="power of two"):
            ImportOptions(line_bytes=48)

    def test_bad_num_cores(self):
        with pytest.raises(ValueError, match="num_cores"):
            ImportOptions(num_cores=0)

    def test_unknown_format_rejected(self, tmp_path):
        path = _write(tmp_path, "t.csv", "0,0,R,4\n")
        with pytest.raises(ValueError, match="unknown trace format"):
            import_trace(path, fmt="sqlite")

    def test_binary_blob_rejected_as_not_text(self, tmp_path):
        path = tmp_path / "blob.npz"
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(TraceImportError, match="not a readable capture"):
            import_trace(path, fmt="csv")
