"""Binary ChampSim capture format: decode semantics, compression,
truncation, budget, roundtrip, and the giga-fixture synthesizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.types import AccessType
from repro.workloads.champsim_bin import (
    RECORD_BYTES,
    RECORD_DTYPE,
    ChampSimBinError,
    expand_block,
    iter_access_segments,
    iter_instruction_blocks,
    read_champsim_bin,
    split_block,
    synthesize_champsim_bin,
    write_champsim_bin,
)
from repro.workloads.imports import (
    ImportOptions,
    TraceImportError,
    detect_format,
    import_trace,
)

from tests.helpers import records_trace_set

R, W = AccessType.READ, AccessType.WRITE


def _records(instructions):
    """Build raw records from per-instruction (src_mems, dst_mems) lists."""
    block = np.zeros(len(instructions), dtype=RECORD_DTYPE)
    block["ip"] = 0x400000 + 4 * np.arange(len(instructions), dtype=np.uint64)
    for i, (srcs, dsts) in enumerate(instructions):
        for slot, addr in enumerate(srcs):
            block["src_mem"][i, slot] = addr
        for slot, addr in enumerate(dsts):
            block["dst_mem"][i, slot] = addr
    return block


def _write_raw(path, block):
    path.write_bytes(block.tobytes())
    return path


class TestRecordLayout:
    def test_packs_to_64_bytes(self):
        assert RECORD_BYTES == 64

    def test_expand_reads_before_writes_in_slot_order(self):
        block = _records([
            ([0x1000, 0x2000], [0x3000]),
            ([], [0x4000]),
            ([], []),  # no memory operands
            ([0x5000], []),
        ])
        types, lines, counts = expand_block(block, line_shift=6)
        assert list(counts) == [3, 1, 0, 1]
        assert [int(t) for t in types] == [
            int(R), int(R), int(W), int(W), int(R)
        ]
        assert list(lines) == [
            0x1000 >> 6, 0x2000 >> 6, 0x3000 >> 6, 0x4000 >> 6, 0x5000 >> 6
        ]


class TestIterInstructionBlocks:
    def test_blocks_cover_the_stream(self, tmp_path):
        block = _records([([0x40 * (i + 1)], []) for i in range(10)])
        path = _write_raw(tmp_path / "cap.trace", block)
        blocks = list(iter_instruction_blocks(path, block_instructions=3))
        assert [len(b) for b in blocks] == [3, 3, 3, 1]
        assert np.concatenate(blocks)["ip"].tolist() == block["ip"].tolist()

    def test_truncated_capture_raises(self, tmp_path):
        block = _records([([0x40], [])] * 2)
        path = tmp_path / "cap.trace"
        path.write_bytes(block.tobytes()[:-7])
        with pytest.raises(ChampSimBinError, match="truncated"):
            list(iter_instruction_blocks(path))

    def test_max_instructions_budget(self, tmp_path):
        block = _records([([0x40 * (i + 1)], []) for i in range(10)])
        path = _write_raw(tmp_path / "cap.trace", block)
        blocks = list(iter_instruction_blocks(
            path, block_instructions=4, max_instructions=6
        ))
        assert sum(len(b) for b in blocks) == 6

    def test_budget_suppresses_truncation_check(self, tmp_path):
        block = _records([([0x40], [])] * 3)
        path = tmp_path / "cap.trace"
        path.write_bytes(block.tobytes()[: 2 * RECORD_BYTES + 5])
        blocks = list(iter_instruction_blocks(path, max_instructions=2))
        assert sum(len(b) for b in blocks) == 2

    def test_corrupt_xz_raises_champsim_error(self, tmp_path):
        path = tmp_path / "cap.trace.xz"
        path.write_bytes(b"\xfd7zXZ\x00garbage-not-a-stream")
        with pytest.raises(ChampSimBinError, match="corrupt"):
            list(iter_instruction_blocks(path))


class TestCompression:
    @pytest.mark.parametrize("suffix", ["", ".xz", ".gz"])
    def test_transparent_roundtrip(self, tmp_path, suffix):
        traces = records_trace_set([
            [(R, 10 + i, 0) for i in range(8)],
            [(W, 30 + i, 0) for i in range(8)],
        ])
        path = tmp_path / f"cap.trace{suffix}"
        write_champsim_bin(traces, path)
        back = import_trace(path, options=ImportOptions(num_cores=2))
        for original, reread in zip(traces.cores, back.cores):
            assert list(reread.types) == list(original.types)
            assert list(reread.lines) == list(original.lines)


class TestSplit:
    def test_instruction_granularity_keeps_ops_together(self, tmp_path):
        # Instruction 0 (core 0) carries two reads and a write; they
        # must all land on core 0 even though the counts are uneven.
        block = _records([
            ([0x1000, 0x2000], [0x3000]),
            ([0x4000], []),
            ([0x5000], []),
            ([], [0x6000]),
        ])
        path = _write_raw(tmp_path / "cap.trace", block)
        [segment] = list(iter_access_segments(path, num_cores=2, line_shift=6))
        core0_types, core0_lines, core0_gaps = segment[0]
        core1_types, core1_lines, _ = segment[1]
        assert list(core0_lines) == [
            0x1000 >> 6, 0x2000 >> 6, 0x3000 >> 6, 0x5000 >> 6
        ]
        assert list(core1_lines) == [0x4000 >> 6, 0x6000 >> 6]
        assert core0_gaps.dtype == np.uint16 and not core0_gaps.any()

    def test_round_robin_is_global_across_blocks(self, tmp_path):
        block = _records([([0x40 * (i + 1)], []) for i in range(6)])
        path = _write_raw(tmp_path / "cap.trace", block)
        segments = list(iter_access_segments(
            path, num_cores=2, line_shift=6, block_instructions=3
        ))
        # Block 2 starts at instruction 3 -> core 1 first.
        assert list(segments[1][0][1]) == [5]
        assert list(segments[1][1][1]) == [4, 6]

    @pytest.mark.parametrize("num_cores", [1, 3, 4, 64])
    @pytest.mark.parametrize("first", [0, 5, 130])
    def test_split_matches_a_per_instruction_loop(self, num_cores, first):
        rng = np.random.default_rng(num_cores * 1000 + first)
        block = np.zeros(200, dtype=RECORD_DTYPE)
        used = rng.random((200, 6)) < 0.3
        addresses = rng.integers(1, 1 << 48, size=(200, 6), dtype=np.uint64) * used
        block["src_mem"] = addresses[:, :4]
        block["dst_mem"] = addresses[:, 4:]
        expected = [([], []) for _ in range(num_cores)]
        for i, record in enumerate(block):
            types, lines = expected[(first + i) % num_cores]
            for kind, slots in ((R, record["src_mem"]), (W, record["dst_mem"])):
                for address in slots.tolist():
                    if address:
                        types.append(int(kind))
                        lines.append(address >> 6)
        segment = split_block(block, first, num_cores, line_shift=6)
        assert len(segment) == num_cores
        for (types, lines, gaps), (want_types, want_lines) in zip(segment, expected):
            assert types.dtype == np.uint8 and lines.dtype == np.int64
            assert types.tolist() == want_types
            assert lines.tolist() == want_lines
            assert gaps.dtype == np.uint16 and not gaps.any() and len(gaps) == len(lines)

    def test_empty_capture_rejected(self, tmp_path):
        path = _write_raw(tmp_path / "cap.trace", _records([([], [])]))
        with pytest.raises(TraceImportError, match="no memory accesses"):
            read_champsim_bin(path, ImportOptions(num_cores=1))


class TestDetection:
    @pytest.mark.parametrize("name", [
        "a.trace", "a.trace.xz", "a.trace.gz",
    ])
    def test_binary_content_detects(self, tmp_path, name):
        traces = records_trace_set([[(R, 5, 0)]])
        path = write_champsim_bin(traces, tmp_path / name)
        assert detect_format(path) == "champsim-bin"

    def test_champsimtrace_suffix_needs_no_content(self, tmp_path):
        assert detect_format(tmp_path / "a.champsimtrace.xz") == "champsim-bin"

    def test_text_dot_trace_still_sniffs_as_text(self, tmp_path):
        path = tmp_path / "a.trace"
        path.write_text("0,0,R,4\n")
        assert detect_format(path) == "csv"

    def test_import_records_provenance(self, tmp_path):
        traces = records_trace_set([[(R, 5, 0), (W, 6, 0)]])
        path = tmp_path / "cap.trace.xz"
        write_champsim_bin(traces, path)
        back = import_trace(path, options=ImportOptions(num_cores=1))
        assert back.provenance["format"] == "champsim-bin"
        assert back.provenance["records"] == 2


class TestSynthesize:
    def test_deterministic_and_importable(self, tmp_path):
        a = synthesize_champsim_bin(tmp_path / "a.trace.xz", 1000, seed=9)
        b = synthesize_champsim_bin(tmp_path / "b.trace.xz", 1000, seed=9)
        assert a.read_bytes() == b.read_bytes()
        back = import_trace(a, options=ImportOptions(num_cores=4))
        assert back.total_accesses() == 1000
        assert all(len(trace) == 250 for trace in back.cores)

    def test_write_fraction_and_footprint(self, tmp_path):
        path = synthesize_champsim_bin(
            tmp_path / "a.trace", 2000, seed=1,
            footprint_lines=64, write_fraction=0.5,
        )
        back = import_trace(path, options=ImportOptions(num_cores=1))
        trace = back.cores[0]
        writes = (np.asarray(trace.types) == int(W)).mean()
        assert 0.4 < writes < 0.6
        assert 1 <= min(trace.lines) and max(trace.lines) <= 64

    def test_hot_set_concentrates_accesses(self, tmp_path):
        path = synthesize_champsim_bin(
            tmp_path / "hot.trace", 4000, seed=2,
            footprint_lines=1 << 12, hot_lines=6, hot_fraction=0.9,
        )
        back = import_trace(path, options=ImportOptions(num_cores=1))
        lines = np.asarray(back.cores[0].lines)
        hot_share = (lines <= 6).mean()
        assert 0.85 < hot_share < 0.95  # 0.9 hot + a sliver of cold luck
        assert lines.max() > 6  # the cold tail still samples the footprint
