"""Binary ChampSim trace reader/writer (``.trace.xz`` fixed records).

Real ChampSim distributes captures as xz-compressed streams of fixed
64-byte ``input_instr`` records::

    uint64 ip;                 // instruction pointer
    uint8  is_branch;
    uint8  branch_taken;
    uint8  destination_registers[2];
    uint8  source_registers[4];
    uint64 destination_memory[2];   // byte addresses written (0 = unused)
    uint64 source_memory[4];        // byte addresses read   (0 = unused)

This module decodes that stream into the simulator's per-core record
arrays without ever materializing the capture: the file is read (and
lzma/gzip-decompressed) in bounded blocks, each block is expanded to
memory accesses with vectorized numpy ops, and the resulting per-core
segments either accumulate into a :class:`~repro.workloads.trace.CoreTrace`
list (the materializing :func:`read_champsim_bin` used by ``trace
import``) or flow straight into the streaming pipeline
(:mod:`repro.workloads.streaming`) one segment at a time.

Decode semantics per instruction: every non-zero ``source_memory`` slot
becomes a READ and every non-zero ``destination_memory`` slot a WRITE,
in slot order with reads before writes (the order ChampSim's own cache
model issues them).  Instructions are distributed over cores at
*instruction* granularity (all of an instruction's accesses stay on one
core); an instruction with no memory operands still consumes its
round-robin slot, so a given instruction index always lands on the same
core regardless of its neighbours' operand counts.  Compute gaps are
zero — the format carries no timing.
"""

from __future__ import annotations

import gzip
import lzma
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.common.types import AccessType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.imports import ImportOptions
    from repro.workloads.trace import CoreTrace, TraceSet

#: ChampSim's ``input_instr`` layout (little-endian, packed, 64 bytes).
RECORD_DTYPE = np.dtype([
    ("ip", "<u8"),
    ("is_branch", "u1"),
    ("branch_taken", "u1"),
    ("dst_regs", "u1", (2,)),
    ("src_regs", "u1", (4,)),
    ("dst_mem", "<u8", (2,)),
    ("src_mem", "<u8", (4,)),
])

RECORD_BYTES = RECORD_DTYPE.itemsize
assert RECORD_BYTES == 64, "input_instr must pack to 64 bytes"

NUM_SRC_MEM = 4
NUM_DST_MEM = 2

#: Instructions decoded per block (4 MiB of raw records), whatever the core
#: count: the import and both passes of a stream read blocks of this size.
BLOCK_INSTRUCTIONS = 65536


class ChampSimBinError(ValueError):
    """A malformed binary ChampSim capture."""

    def __init__(self, source: "str | Path", message: str):
        super().__init__(f"{source}: {message}")
        self.source = str(source)


def open_binary(path: "str | Path", mode: str = "rb"):
    """Open a binary capture with transparent ``.xz``/``.gz`` handling.

    Writes use the fastest compression presets: the records are mostly
    zero padding (ratio stays good at any level) and multi-GB synthetic
    fixtures must not take minutes to emit.
    """
    path = Path(path)
    writing = "w" in mode or "a" in mode or "x" in mode
    if path.suffix == ".xz":
        return lzma.open(path, mode, preset=0) if writing else lzma.open(path, mode)
    if path.suffix == ".gz":
        return gzip.open(path, mode, compresslevel=1) if writing else gzip.open(path, mode)
    return open(path, mode)


def iter_instruction_blocks(
    path: "str | Path",
    block_instructions: int = BLOCK_INSTRUCTIONS,
    max_instructions: "int | None" = None,
) -> Iterator[np.ndarray]:
    """Yield bounded structured-array blocks of decoded instructions.

    The stream is read (and decompressed) ``block_instructions`` records
    at a time; a trailing partial record raises
    :class:`ChampSimBinError` (a truncated capture must not silently
    drop its tail).  ``max_instructions`` caps the total decoded — the
    ``--max-inst`` budget knob — and suppresses the truncation check
    past the cap (the budget may land mid-file).
    """
    if block_instructions < 1:
        raise ValueError(f"block_instructions must be >= 1, got {block_instructions}")
    remaining = max_instructions
    carry = b""
    try:
        with open_binary(path) as handle:
            while True:
                want = block_instructions if remaining is None else min(
                    block_instructions, remaining
                )
                if want == 0:
                    return  # instruction budget exhausted mid-stream
                data = handle.read(want * RECORD_BYTES - len(carry))
                if not data:
                    break
                buffer = carry + data
                count, tail = divmod(len(buffer), RECORD_BYTES)
                carry = buffer[len(buffer) - tail:] if tail else b""
                if count:
                    block = np.frombuffer(
                        buffer[: count * RECORD_BYTES], dtype=RECORD_DTYPE
                    )
                    if remaining is not None:
                        remaining -= len(block)
                    yield block
    except (lzma.LZMAError, gzip.BadGzipFile, EOFError) as error:
        raise ChampSimBinError(path, f"corrupt compressed stream ({error})") from None
    if carry:
        raise ChampSimBinError(
            path,
            f"truncated capture: {len(carry)} trailing bytes do not form a "
            f"whole {RECORD_BYTES}-byte record",
        )


#: Memory slots per instruction, and the access type of each, sources first.
_SLOTS = NUM_SRC_MEM + NUM_DST_MEM
_SLOT_TYPES = np.array(
    [int(AccessType.READ)] * NUM_SRC_MEM + [int(AccessType.WRITE)] * NUM_DST_MEM,
    dtype=np.uint8,
)


def expand_block(
    block: np.ndarray, line_shift: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand instruction records into per-access arrays.

    Returns ``(types, lines, ops_per_instruction)`` where ``types`` /
    ``lines`` list every memory access of the block in instruction order
    (reads before writes within an instruction, slot order within each
    kind) and ``ops_per_instruction`` gives each instruction's access
    count.
    """
    # The row-major positions of the used slots in a table of sources
    # followed by destinations walk the accesses in exactly that order.
    addresses = np.concatenate((block["src_mem"], block["dst_mem"]), axis=1)
    used = np.flatnonzero(addresses)
    types = _SLOT_TYPES[used % _SLOTS]
    lines = (addresses.ravel()[used] >> np.uint64(line_shift)).astype(np.int64)
    return types, lines, np.bincount(used // _SLOTS, minlength=len(block))


def split_block(
    block: np.ndarray, first: int, num_cores: int, line_shift: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Expand one instruction block and split it round-robin over cores.

    ``first`` is the capture-wide index of the block's first
    instruction: instruction ``i`` lands on core ``i % num_cores``, with
    all of its accesses.  Returns one ``(types, lines, gaps)`` chunk per
    core: :func:`expand_block` of that core's instructions, with zero
    gaps.
    """
    segment = []
    for core in range(num_cores):
        # The core's instructions are every num_cores-th record.
        records = block[(core - first) % num_cores::num_cores]
        types, lines, _counts = expand_block(records, line_shift)
        segment.append((types, lines, np.zeros(len(lines), dtype=np.uint16)))
    return segment


def iter_access_segments(
    path: "str | Path",
    num_cores: int,
    line_shift: int,
    block_instructions: int = BLOCK_INSTRUCTIONS,
    max_instructions: "int | None" = None,
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Stream a capture as per-core ``(types, lines, gaps)`` segments.

    Each yielded segment is one decoded instruction block through
    :func:`split_block`.  This is the bounded-memory feed behind both
    the materializing importer and the streaming simulate path.
    """
    first = 0
    for block in iter_instruction_blocks(path, block_instructions, max_instructions):
        yield split_block(block, first, num_cores, line_shift)
        first += len(block)


def read_champsim_bin(path: "str | Path", options: "ImportOptions") -> "list[CoreTrace]":
    """Materialize a binary capture into per-core traces (``trace import``)."""
    from repro.workloads.imports import TraceImportError
    from repro.workloads.trace import CoreTrace

    num_cores = options.num_cores or 1
    parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(num_cores)]
    for segment in iter_access_segments(
        path, num_cores, options.line_shift,
        max_instructions=options.max_records,
    ):
        for core, (types, lines, _gaps) in enumerate(segment):
            if len(types):
                parts[core].append((types, lines))
    cores = []
    for core_parts in parts:
        if core_parts:
            types = np.concatenate([part[0] for part in core_parts])
            lines = np.concatenate([part[1] for part in core_parts])
        else:
            types = np.empty(0, dtype=np.uint8)
            lines = np.empty(0, dtype=np.int64)
        cores.append(CoreTrace(
            types=types, lines=lines, gaps=np.zeros(len(types), dtype=np.uint16)
        ))
    if not any(len(trace) for trace in cores):
        raise TraceImportError(path, None, "capture contains no memory accesses")
    return cores


def write_champsim_bin(
    traces: "TraceSet", path: "str | Path", line_bytes: int = 64
) -> Path:
    """Write a trace set as a binary ChampSim capture (lossy: no timing).

    One instruction per record, cores interleaved round-robin (so
    re-importing with the same core count reconstructs the per-core
    streams exactly): reads carry their byte address in
    ``source_memory[0]``, writes in ``destination_memory[0]``.  Like the
    text exporter, barriers, compute gaps and instruction fetches are
    not representable.  A ``.xz``/``.gz`` suffix compresses the output.
    """
    from repro.workloads.imports import _require_exportable

    _require_exportable(traces, "champsim-bin", allow_ifetch=False)
    path = Path(path)
    shift = line_bytes.bit_length() - 1
    length = len(traces.cores[0]) if traces.cores else 0
    num_cores = traces.num_cores
    with open_binary(path, "wb") as handle:
        # Interleave in bounded record blocks so multi-GB exports stream.
        rows_per_block = max(1, BLOCK_INSTRUCTIONS // max(num_cores, 1))
        for start in range(0, length, rows_per_block):
            end = min(start + rows_per_block, length)
            rows = end - start
            records = np.zeros(rows * num_cores, dtype=RECORD_DTYPE)
            sequence = np.arange(start * num_cores, end * num_cores, dtype=np.uint64)
            records["ip"] = 0x400000 + 4 * sequence
            for core, trace in enumerate(traces.cores):
                types = np.asarray(trace.types[start:end])
                addrs = (
                    np.asarray(trace.lines[start:end]).astype(np.uint64)
                    << np.uint64(shift)
                )
                dest = records[core::num_cores]
                writes = types == int(AccessType.WRITE)
                src = dest["src_mem"]
                dst = dest["dst_mem"]
                src[:, 0] = np.where(writes, 0, addrs)
                dst[:, 0] = np.where(writes, addrs, 0)
                dest["src_mem"] = src
                dest["dst_mem"] = dst
            handle.write(records.tobytes())
    return path


def synthesize_champsim_bin(
    path: "str | Path",
    instructions: int,
    seed: int = 1,
    footprint_lines: int = 1 << 16,
    line_bytes: int = 64,
    write_fraction: float = 0.2,
    hot_lines: int = 0,
    hot_fraction: float = 0.0,
) -> Path:
    """Generate a synthetic binary capture of ``instructions`` records.

    Purpose-built for the streaming benchmarks and the CI
    ``streaming-smoke`` fixture: multi-million-instruction captures are
    written in vectorized blocks (bounded memory, fast even through
    lzma), one memory access per instruction, addresses drawn from a
    bounded ``footprint_lines`` working set so region inference stays
    small no matter the trace length.

    ``hot_lines``/``hot_fraction`` mix in cache locality: that fraction
    of accesses is drawn from the first ``hot_lines`` lines of the
    footprint, giving real caches an L1-resident hot set — without it a
    uniform draw over a large footprint makes every access a miss, which
    benchmarks the miss path rather than the streaming machinery.
    """
    rng = np.random.default_rng(seed)
    path = Path(path)
    shift = line_bytes.bit_length() - 1
    written = 0
    with open_binary(path, "wb") as handle:
        while written < instructions:
            rows = min(BLOCK_INSTRUCTIONS * 4, instructions - written)
            records = np.zeros(rows, dtype=RECORD_DTYPE)
            records["ip"] = 0x400000 + 4 * np.arange(
                written, written + rows, dtype=np.uint64
            )
            # Line 0 is reserved as the "unused slot" sentinel, so draw
            # from [1, footprint_lines].
            lines = rng.integers(1, footprint_lines + 1, size=rows, dtype=np.uint64)
            if hot_lines and hot_fraction:
                hot = rng.random(rows) < hot_fraction
                lines[hot] = rng.integers(
                    1, hot_lines + 1, size=int(hot.sum()), dtype=np.uint64
                )
            addrs = lines << np.uint64(shift)
            writes = rng.random(rows) < write_fraction
            src = records["src_mem"]
            dst = records["dst_mem"]
            src[:, 0] = np.where(writes, 0, addrs)
            dst[:, 0] = np.where(writes, addrs, 0)
            records["src_mem"] = src
            records["dst_mem"] = dst
            handle.write(records.tobytes())
            written += rows
    return path
