"""Real-trace ingestion: external capture formats → :class:`TraceSet`.

Every workload in :mod:`repro.workloads.benchmarks` is synthetic, while
the paper's locality schemes are motivated by the run-length / reuse
behaviour of *real* applications (Section 4.1).  This module imports
captures from real tracing tools into the simulator's native
representation so they flow through the profiler, every simulation
kernel and the experiment grids unmodified.

Four external formats are understood, each parsed **streaming** (the
source file is read in bounded chunks and accumulated into compact
per-core buffers — an import never materializes the capture in
memory).  Text captures may be gzip- (``.gz``) or xz- (``.xz``)
compressed; the binary ChampSim format (``champsim-bin``, typically
``name.trace.xz``) is decoded by :mod:`repro.workloads.champsim_bin`.
The text formats:

``champsim``
    ChampSim-style text records, one access per line::

        <pc> <address> <is_write>

    ``pc`` and ``address`` are byte addresses (decimal or ``0x`` hex);
    ``is_write`` is ``0`` (read) or ``1`` (write).  A single-stream
    format: records are distributed over cores by the splitter
    (``round-robin`` or contiguous ``blocks``).

``din``
    Dinero / Intel-PIN / DynamoRIO "din"-style text, one access per
    line::

        <type> <address> [ignored...]

    ``type`` is ``0`` (read), ``1`` (write) or ``2`` (instruction
    fetch); ``address`` is a *hexadecimal* byte address, with or
    without a ``0x`` prefix (real Dinero captures write bare,
    zero-padded hex).  Also single-stream.

``csv``
    The documented CSV interchange format (optionally gzipped), the
    lossless round-trip carrier for :class:`TraceSet` cores — see
    :func:`export_csv`.  Columns::

        core,tick,type,line

    ``core`` is the issuing core id; ``tick`` is that core's
    non-decreasing integer issue timestamp (compute gaps are
    reconstructed as per-core tick deltas); ``type`` is one of
    ``R``/``W``/``I``/``B`` (read, write, ifetch, barrier); ``line`` is
    a **line** address (the simulator's native unit — byte-address
    formats shift by ``line_bytes``).  A header row and ``#`` comment
    lines are permitted.

After parsing, :func:`infer_regions` reconstructs the region →
:class:`LineClass` map the synthetic generators would have declared, so
``TraceSet.validate_coverage`` and the Figure 1 profiler work
unmodified: lines ever instruction-fetched are ``INSTRUCTION``; data
lines touched by exactly one core are ``PRIVATE``; data lines touched
by several cores are ``SHARED_RW`` when any core wrote them and
``SHARED_RO`` otherwise.  (Caveat: the inference sees only the capture
— a logically shared line that one core happened to touch classifies as
private, and a line that is both fetched and loaded classifies as
instruction.)

Imported sets carry a ``provenance`` payload (source format, file name,
content hash, importer options, record counts) persisted by the version
2 ``.npz`` archive format (:mod:`repro.workloads.io`), and
:func:`trace_content_hash` gives the experiment layer a stable content
address for ``imported:<path>`` benchmarks.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import lzma
import os
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from repro.common.addr import Region
from repro.common.types import AccessType, LineClass
from repro.workloads.trace import CoreTrace, TraceSet

#: Recognized external text formats (plus ``"auto"`` for detection).
FORMATS = ("champsim", "din", "csv")

#: Recognized external binary formats (decoded by
#: :mod:`repro.workloads.champsim_bin`; importable and streamable).
BINARY_FORMATS = ("champsim-bin",)

#: Every importable format, the CLI's ``--format`` vocabulary.
ALL_FORMATS = FORMATS + BINARY_FORMATS

#: File suffixes (inner extensions, compression stripped) that identify
#: a binary ChampSim capture: real captures ship as
#: ``name.champsimtrace.xz`` / ``name.trace.xz``.
_BINARY_SUFFIXES = ("champsimtrace", "trace")

#: Single-stream → per-core splitting strategies.
SPLITS = ("round-robin", "blocks")

#: Benchmark-name prefix marking an imported ``.npz`` trace in the
#: experiment layer (``--benchmarks imported:<path>``).
IMPORTED_PREFIX = "imported:"

#: Lines of text parsed per streaming chunk.
CHUNK_LINES = 8192

#: Largest core id the CSV importer will *infer* a machine width from
#: (an explicit ``num_cores`` has no cap): a capture with a garbage id
#: like ``4000000000`` must fail with a located error, not allocate
#: four billion core buffers.
MAX_INFERRED_CORES = 4096

_CSV_TYPES = {
    "R": AccessType.READ,
    "W": AccessType.WRITE,
    "I": AccessType.IFETCH,
    "B": AccessType.BARRIER,
}
_CSV_LETTERS = {value: key for key, value in _CSV_TYPES.items()}

_DIN_TYPES = {
    0: AccessType.READ,
    1: AccessType.WRITE,
    2: AccessType.IFETCH,
}


class TraceImportError(ValueError):
    """A malformed external capture, with file/line context."""

    def __init__(self, source: "str | Path", lineno: int | None, message: str):
        where = str(source) if lineno is None else f"{source}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.source = str(source)
        self.lineno = lineno


@dataclasses.dataclass(frozen=True)
class ImportOptions:
    """Importer knobs shared by every format.

    ``num_cores`` is the machine width the trace targets; for the
    single-stream formats the records are distributed over that many
    cores by ``split``, while the CSV format carries explicit core ids
    (``num_cores=None`` infers the width as ``max core id + 1``).
    ``line_bytes`` converts the byte addresses of champsim/din captures
    to line addresses (CSV already carries line addresses).
    """

    num_cores: "int | None" = None
    split: str = "round-robin"
    line_bytes: int = 64
    name: "str | None" = None
    #: Record budget (the CLI's ``--max-inst``): stop parsing after this
    #: many records — text-format lines, or *instructions* for the
    #: binary ChampSim format (an instruction may expand to several
    #: accesses).  ``None`` imports the whole capture.
    max_records: "int | None" = None

    def __post_init__(self) -> None:
        if self.num_cores is not None and self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.max_records is not None and self.max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {self.max_records}")
        if self.split not in SPLITS:
            raise ValueError(
                f"unknown split {self.split!r}; expected one of {SPLITS}"
            )
        bytes_ = self.line_bytes
        if bytes_ < 1 or bytes_ & (bytes_ - 1):
            raise ValueError(
                f"line_bytes must be a positive power of two, got {bytes_}"
            )

    @property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1


# ---------------------------------------------------------------------------
# Streaming plumbing
# ---------------------------------------------------------------------------

def _open_text(path: Path) -> TextIO:
    """Open a capture for streaming text reads (transparent gzip/xz)."""
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    if path.suffix == ".xz":
        return lzma.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def _open_text_write(path: Path) -> TextIO:
    """Writing twin of :func:`_open_text` (``.gz`` gzips, ``.xz`` lzmas)."""
    if path.suffix == ".gz":
        return gzip.open(path, "wt", encoding="utf-8")
    if path.suffix == ".xz":
        return lzma.open(path, "wt", encoding="utf-8")
    return path.open("w", encoding="utf-8")


def _iter_lines(
    handle: TextIO, max_records: "int | None" = None
) -> Iterator[tuple[int, str]]:
    """(lineno, stripped payload) for every non-blank, non-comment line,
    pulled in bounded chunks so huge captures never sit in memory.
    ``max_records`` stops the scan after that many data lines (the
    ``--max-inst`` budget; headers and comments do not count)."""
    lineno = 0
    yielded = 0
    while True:
        chunk = handle.readlines(CHUNK_LINES * 64)
        if not chunk:
            return
        for raw in chunk:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line
            yielded += 1
            if max_records is not None and yielded >= max_records:
                return


def _parse_int(token: str, source: Path, lineno: int, field: str) -> int:
    try:
        return int(token, 0)  # base 0: decimal or 0x-prefixed hex
    except ValueError:
        raise TraceImportError(
            source, lineno, f"{field} {token!r} is not an integer"
        ) from None


def _parse_hex(token: str, source: Path, lineno: int, field: str) -> int:
    """Hexadecimal with or without ``0x`` — real Dinero/PIN din captures
    write bare (often zero-padded) hex addresses like ``ffff03b0``."""
    try:
        return int(token, 16)
    except ValueError:
        raise TraceImportError(
            source, lineno, f"{field} {token!r} is not a hexadecimal address"
        ) from None


class _CoreBuffers:
    """Growing per-core (types, lines, gaps) buffers → CoreTrace arrays.

    ``array`` buffers keep the streaming accumulation compact (one byte
    per type, eight per line, eight per gap) and convert to numpy in one
    pass at the end.
    """

    def __init__(self, num_cores: int) -> None:
        self.types = [array("B") for _ in range(num_cores)]
        self.lines = [array("q") for _ in range(num_cores)]
        self.gaps = [array("q") for _ in range(num_cores)]

    def ensure(self, core: int) -> None:
        """Grow to cover ``core`` (for formats that discover core ids
        while streaming)."""
        while len(self.types) <= core:
            self.types.append(array("B"))
            self.lines.append(array("q"))
            self.gaps.append(array("q"))

    def append(self, core: int, atype: AccessType, line: int, gap: int) -> None:
        self.types[core].append(int(atype))
        self.lines[core].append(line)
        self.gaps[core].append(gap)

    def records(self) -> int:
        return sum(len(types) for types in self.types)

    def cores(self, source: Path) -> list[CoreTrace]:
        traces = []
        for types, lines, gaps in zip(self.types, self.lines, self.gaps):
            gap_array = np.frombuffer(gaps, dtype=np.int64) if gaps else (
                np.empty(0, dtype=np.int64)
            )
            # Match the synthetic generators' compact gap dtype when the
            # values fit, so a CSV round-trip reproduces them exactly.
            if gap_array.size == 0 or gap_array.max(initial=0) <= np.iinfo(np.uint16).max:
                gap_array = gap_array.astype(np.uint16)
            traces.append(CoreTrace(
                types=np.frombuffer(types, dtype=np.uint8).copy() if types
                else np.empty(0, dtype=np.uint8),
                lines=np.frombuffer(lines, dtype=np.int64).copy() if lines
                else np.empty(0, dtype=np.int64),
                gaps=gap_array.copy(),
            ))
        if not any(len(trace) for trace in traces):
            raise TraceImportError(source, None, "capture contains no records")
        return traces


# ---------------------------------------------------------------------------
# Format detection
# ---------------------------------------------------------------------------

def _looks_binary(path: Path) -> bool:
    """Sniff whether a ``.trace`` file holds binary records or text.

    Packed ``input_instr`` records are full of NUL padding while every
    text capture is NUL-free, so one bounded (decompressed) read
    decides.  Decompression errors count as binary: the suffix already
    said so, and the binary importer raises with far better context.
    """
    from repro.workloads.champsim_bin import open_binary

    try:
        with open_binary(path) as handle:
            head = handle.read(4096)
    except (lzma.LZMAError, gzip.BadGzipFile, EOFError):
        return True
    return b"\x00" in head


def detect_format(path: "str | Path") -> str:
    """Guess a capture's format from its extension, then its content.

    ``.csv`` / ``.csv.gz`` / ``.csv.xz`` → csv; ``.din`` (``.gz``/
    ``.xz``) → din; ``.champsim`` (``.gz``/``.xz``) → champsim;
    ``.champsimtrace`` (``.gz``/``.xz``) → the binary ChampSim format,
    as does ``.trace`` when the content is binary (NUL bytes — text
    ``.trace`` captures keep their content-based detection).
    Otherwise the first data line decides: a comma
    means csv; a first field that is a din type code (``0``/``1``/``2``)
    means din — din rows may carry trailing ignored columns, so the
    field *count* cannot distinguish them from champsim's three-field
    rows, and a genuine champsim ``pc`` is never a small type code; any
    other three-field line means champsim.  Ambiguous captures should
    pass an explicit format.
    """
    path = Path(path)
    suffixes = [suffix.lstrip(".") for suffix in path.suffixes]
    for fmt in FORMATS:
        if fmt in suffixes:
            return fmt
    if "champsimtrace" in suffixes:
        return "champsim-bin"
    if any(suffix in _BINARY_SUFFIXES for suffix in suffixes) and _looks_binary(path):
        return "champsim-bin"
    with _open_text(path) as handle:
        for _lineno, line in _iter_lines(handle):
            if "," in line:
                return "csv"
            fields = line.split()
            if len(fields) >= 2 and fields[0] in ("0", "1", "2"):
                return "din"
            if len(fields) == 3:
                return "champsim"
            break
    raise TraceImportError(
        path, None,
        "cannot auto-detect the capture format; pass format="
        f"{'|'.join(FORMATS)} explicitly",
    )


# ---------------------------------------------------------------------------
# Single-stream formats (champsim, din)
# ---------------------------------------------------------------------------

def _parse_champsim(source: Path, lineno: int, fields: list[str],
                    shift: int) -> tuple[AccessType, int]:
    if len(fields) != 3:
        raise TraceImportError(
            source, lineno,
            f"expected 3 fields (pc address is_write), got {len(fields)}",
        )
    _pc = _parse_int(fields[0], source, lineno, "pc")
    addr = _parse_int(fields[1], source, lineno, "address")
    if addr < 0:
        raise TraceImportError(source, lineno, f"negative address {addr}")
    is_write = fields[2]
    if is_write not in ("0", "1"):
        raise TraceImportError(
            source, lineno, f"is_write must be 0 or 1, got {is_write!r}"
        )
    atype = AccessType.WRITE if is_write == "1" else AccessType.READ
    return atype, addr >> shift


def _parse_din(source: Path, lineno: int, fields: list[str],
               shift: int) -> tuple[AccessType, int]:
    if len(fields) < 2:
        raise TraceImportError(
            source, lineno,
            f"expected at least 2 fields (type address), got {len(fields)}",
        )
    code = _parse_int(fields[0], source, lineno, "type")
    atype = _DIN_TYPES.get(code)
    if atype is None:
        raise TraceImportError(
            source, lineno,
            f"unknown din access type {code} (expected 0=read, 1=write, 2=ifetch)",
        )
    addr = _parse_hex(fields[1], source, lineno, "address")
    if addr < 0:
        raise TraceImportError(source, lineno, f"negative address {addr}")
    return atype, addr >> shift


def _import_single_stream(
    path: Path,
    options: ImportOptions,
    parse: Callable[[Path, int, list[str], int], tuple[AccessType, int]],
) -> list[CoreTrace]:
    num_cores = options.num_cores or 1
    buffers = _CoreBuffers(num_cores)
    shift = options.line_shift
    if options.split == "round-robin":
        index = 0
        with _open_text(path) as handle:
            for lineno, line in _iter_lines(handle, options.max_records):
                atype, line_addr = parse(path, lineno, line.split(), shift)
                buffers.append(index % num_cores, atype, line_addr, 0)
                index += 1
        return buffers.cores(path)
    # blocks: N contiguous chunks.  The stream must be buffered once to
    # learn its length; the buffer is the compact single-core form, and
    # the chunks are numpy slices of it (no per-record Python work).
    staging = _CoreBuffers(1)
    with _open_text(path) as handle:
        for lineno, line in _iter_lines(handle, options.max_records):
            atype, line_addr = parse(path, lineno, line.split(), shift)
            staging.append(0, atype, line_addr, 0)
    total = staging.records()
    if total == 0:
        raise TraceImportError(path, None, "capture contains no records")
    types = np.frombuffer(staging.types[0], dtype=np.uint8)
    lines = np.frombuffer(staging.lines[0], dtype=np.int64)
    bounds = [core * total // num_cores for core in range(num_cores + 1)]
    return [
        CoreTrace(
            types=types[start:end].copy(),
            lines=lines[start:end].copy(),
            gaps=np.zeros(end - start, dtype=np.uint16),
        )
        for start, end in zip(bounds, bounds[1:])
    ]


# ---------------------------------------------------------------------------
# CSV interchange format
# ---------------------------------------------------------------------------

def _import_csv_cores(path: Path, options: ImportOptions) -> list[CoreTrace]:
    """Stream a CSV capture into per-core buffers.

    Gap reconstruction needs only each core's *previous* tick, so the
    records go straight into the compact buffers — nothing per-record
    survives the loop, keeping multi-GB captures at bounded memory.
    When ``num_cores`` is not declared, the buffers grow as new core
    ids appear (the final width is ``max core id + 1``).
    """
    declared = options.num_cores
    buffers = _CoreBuffers(declared or 0)
    last_tick: list[int] = [0] * (declared or 0)
    first_data_row = True
    with _open_text(path) as handle:
        # A header row spends one unit of the record budget — the cap is
        # a scan bound (``--max-inst``), not an exact record count.
        for lineno, line in _iter_lines(handle, options.max_records):
            fields = [field.strip() for field in line.split(",")]
            if first_data_row:
                first_data_row = False
                if [field.lower() for field in fields[:2]] == ["core", "tick"]:
                    continue  # header row
            if len(fields) != 4:
                raise TraceImportError(
                    path, lineno,
                    f"expected 4 fields (core,tick,type,line), got {len(fields)}",
                )
            core = _parse_int(fields[0], path, lineno, "core")
            tick = _parse_int(fields[1], path, lineno, "tick")
            letter = fields[2].upper()
            atype = _CSV_TYPES.get(letter)
            if atype is None:
                raise TraceImportError(
                    path, lineno,
                    f"unknown access type {fields[2]!r} "
                    f"(expected one of {''.join(_CSV_TYPES)})",
                )
            line_addr = _parse_int(fields[3], path, lineno, "line")
            if core < 0:
                raise TraceImportError(path, lineno, f"negative core id {core}")
            if declared is not None and core >= declared:
                raise TraceImportError(
                    path, lineno,
                    f"core id {core} outside the declared {declared} "
                    f"cores (records must satisfy 0 <= core < num_cores)",
                )
            if tick < 0:
                raise TraceImportError(path, lineno, f"negative tick {tick}")
            if line_addr < 0 and atype is not AccessType.BARRIER:
                raise TraceImportError(
                    path, lineno, f"negative line address {line_addr}"
                )
            if declared is None and core >= len(last_tick):
                if core >= MAX_INFERRED_CORES:
                    raise TraceImportError(
                        path, lineno,
                        f"core id {core} exceeds the inference cap of "
                        f"{MAX_INFERRED_CORES}; pass num_cores explicitly "
                        f"if the capture really is that wide",
                    )
                buffers.ensure(core)
                last_tick.extend([0] * (core + 1 - len(last_tick)))
            previous = last_tick[core]
            gap = tick - previous
            if gap < 0:
                raise TraceImportError(
                    path, lineno,
                    f"non-monotonic tick {tick} for core {core} "
                    f"(previous tick {previous}); per-core ticks must be "
                    f"non-decreasing",
                )
            last_tick[core] = tick
            buffers.append(core, atype, line_addr, gap)
    return buffers.cores(path)


def export_csv(traces: TraceSet, path: "str | Path") -> Path:
    """Write a trace set in the CSV interchange format (lossless cores).

    One row per record, cores interleaved in round-robin record order;
    ``tick`` is the running sum of each core's compute gaps, so
    re-importing reconstructs the exact ``types``/``lines``/``gaps``
    arrays (the region map is *not* carried — it is re-inferred on
    import, see :func:`infer_regions`).  A ``.gz`` suffix gzips the
    output.

    Ticks are integers, so *fractional* compute gaps are not
    representable and raise instead of silently truncating (persist
    such sets with :func:`repro.workloads.io.save_trace_set`).
    """
    for core, trace in enumerate(traces.cores):
        gaps = np.asarray(trace.gaps)
        if gaps.dtype.kind == "f" and not np.all(gaps == np.floor(gaps)):
            raise ValueError(
                f"cannot export csv: core {core} has fractional compute "
                f"gaps, which integer ticks cannot carry; use "
                f"save_trace_set for such sets"
            )
    path = Path(path)
    with _open_text_write(path) as handle:
        handle.write("core,tick,type,line\n")
        positions = [0] * traces.num_cores
        ticks = [0] * traces.num_cores
        # Iterate only the cores that still hold records, so the
        # interleave stays linear in total records even when one core
        # is far longer than the rest.
        active = [core for core, trace in enumerate(traces.cores)
                  if len(trace)]
        while active:
            still_active = []
            for core in active:
                trace = traces.cores[core]
                index = positions[core]
                positions[core] = index + 1
                ticks[core] += int(trace.gaps[index])
                letter = _CSV_LETTERS[AccessType(int(trace.types[index]))]
                handle.write(
                    f"{core},{ticks[core]},{letter},{int(trace.lines[index])}\n"
                )
                if index + 1 < len(trace):
                    still_active.append(core)
            active = still_active
    return path


def _require_exportable(traces: TraceSet, fmt: str, allow_ifetch: bool) -> None:
    """The single-stream text formats cannot carry every TraceSet.

    They have no barrier or timing records (compute gaps are dropped),
    and champsim's ``is_write`` flag cannot encode instruction fetches.
    Round-tripping through them additionally requires equal-length core
    streams, so a round-robin re-import reassigns every record to its
    original core.
    """
    lengths = {len(trace) for trace in traces.cores}
    if len(lengths) > 1:
        raise ValueError(
            f"cannot export {fmt}: cores have unequal record counts "
            f"{sorted(lengths)}; round-robin interleaving would scramble "
            f"core assignment on re-import"
        )
    for trace in traces.cores:
        types = np.asarray(trace.types)
        if np.any(types == AccessType.BARRIER):
            raise ValueError(
                f"cannot export {fmt}: the format has no barrier records"
            )
        if not allow_ifetch and np.any(types == AccessType.IFETCH):
            raise ValueError(
                f"cannot export {fmt}: the format cannot encode "
                f"instruction fetches"
            )


def _export_single_stream(
    traces: TraceSet,
    path: "str | Path",
    fmt: str,
    render: Callable[[AccessType, int, int], str],
    allow_ifetch: bool,
    line_bytes: int = 64,
) -> Path:
    _require_exportable(traces, fmt, allow_ifetch)
    path = Path(path)
    shift = line_bytes.bit_length() - 1
    with _open_text_write(path) as handle:
        length = len(traces.cores[0]) if traces.cores else 0
        sequence = 0
        for index in range(length):
            for trace in traces.cores:
                atype = AccessType(int(trace.types[index]))
                byte_addr = int(trace.lines[index]) << shift
                handle.write(render(atype, byte_addr, sequence))
                sequence += 1
    return path


def export_champsim(traces: TraceSet, path: "str | Path",
                    line_bytes: int = 64) -> Path:
    """Write a ChampSim-style text capture (lossy: no gaps/barriers).

    Cores are interleaved round-robin, so importing with
    ``split="round-robin"`` and the same core count reconstructs the
    per-core streams exactly.  The synthetic ``pc`` column advances by
    one instruction slot per record.
    """
    def render(atype: AccessType, byte_addr: int, sequence: int) -> str:
        pc = 0x400000 + 4 * sequence
        return f"{pc:#x} {byte_addr:#x} {int(atype is AccessType.WRITE)}\n"

    return _export_single_stream(
        traces, path, "champsim", render, allow_ifetch=False,
        line_bytes=line_bytes,
    )


def export_din(traces: TraceSet, path: "str | Path",
               line_bytes: int = 64) -> Path:
    """Write a din-style text capture (lossy: no gaps/barriers).

    Cores are interleaved round-robin, like :func:`export_champsim`;
    instruction fetches are carried as type code ``2``.
    """
    def render(atype: AccessType, byte_addr: int, _sequence: int) -> str:
        if atype is AccessType.IFETCH:
            code = 2
        elif atype is AccessType.WRITE:
            code = 1
        else:
            code = 0
        return f"{code} {byte_addr:#x}\n"

    return _export_single_stream(
        traces, path, "din", render, allow_ifetch=True, line_bytes=line_bytes,
    )


# ---------------------------------------------------------------------------
# Region / LineClass inference
# ---------------------------------------------------------------------------

def sorted_unique(lines: np.ndarray) -> np.ndarray:
    """``np.unique(lines)`` of a 1-D array, by sorting.

    numpy's hash-based ``unique`` took ~13x longer on a 16K-line block of
    a hot-set capture (570 against 42 us, numpy 2.4), and it holds the
    interpreter lock that the streaming pass-1 reader thread needs.
    """
    lines = np.sort(lines)
    keep = np.empty(lines.size, dtype=bool)
    keep[:1] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep]


def infer_regions(cores: Iterable[CoreTrace]) -> list[tuple[Region, LineClass]]:
    """Reconstruct the (region, class) map from the access streams.

    Each core's unique data, written and fetched lines go through
    :func:`regions_from_line_sets`, which states the classification.
    """
    per_core_data: list[np.ndarray] = []
    written: list[np.ndarray] = []
    fetched: list[np.ndarray] = []
    for trace in cores:
        types = np.asarray(trace.types)
        lines = np.asarray(trace.lines)
        data_mask = (types == AccessType.READ) | (types == AccessType.WRITE)
        per_core_data.append(sorted_unique(lines[data_mask]))
        written.append(sorted_unique(lines[types == AccessType.WRITE]))
        fetched.append(sorted_unique(lines[types == AccessType.IFETCH]))
    return regions_from_line_sets(per_core_data, written, fetched)


def regions_from_line_sets(
    per_core_data: "list[np.ndarray]",
    written: "list[np.ndarray]",
    fetched: "list[np.ndarray]",
) -> list[tuple[Region, LineClass]]:
    """Classify and coalesce per-core *unique* line sets into a region map.

    ``per_core_data[c]`` holds the lines core ``c`` read or wrote,
    ``written[c]`` those it wrote and ``fetched[c]`` those it fetched,
    each sorted and without duplicates (:func:`sorted_unique` output).

    * lines ever instruction-fetched → ``INSTRUCTION`` (takes priority
      over data classes when a line is both fetched and loaded);
    * data lines whose footprint belongs to exactly one core → ``PRIVATE``;
    * data lines touched by two or more cores → ``SHARED_RW`` when any
      core wrote them, ``SHARED_RO`` otherwise.

    Consecutive line addresses of the same class coalesce into one
    :class:`Region`; every non-barrier access is covered, so
    ``TraceSet.validate_coverage`` passes by construction.
    """
    per_core_data = [lines for lines in per_core_data if lines.size]
    written = [lines for lines in written if lines.size]
    fetched = [lines for lines in fetched if lines.size]
    instruction = (
        sorted_unique(np.concatenate(fetched)) if fetched
        else np.empty(0, dtype=np.int64)
    )
    if per_core_data:
        # Each core contributes its unique footprint once, so a line's
        # multiplicity in the concatenation is its toucher count.
        data, touchers = np.unique(
            np.concatenate(per_core_data), return_counts=True
        )
    else:
        data = np.empty(0, dtype=np.int64)
        touchers = np.empty(0, dtype=np.int64)
    written_all = (
        sorted_unique(np.concatenate(written)) if written
        else np.empty(0, dtype=np.int64)
    )

    classes = np.full(data.shape, int(LineClass.PRIVATE), dtype=np.uint8)
    shared = touchers >= 2
    is_written = np.isin(data, written_all)
    classes[shared & is_written] = int(LineClass.SHARED_RW)
    classes[shared & ~is_written] = int(LineClass.SHARED_RO)
    keep = ~np.isin(data, instruction)

    all_lines = np.concatenate((instruction, data[keep]))
    all_classes = np.concatenate((
        np.full(instruction.shape, int(LineClass.INSTRUCTION), dtype=np.uint8),
        classes[keep],
    ))
    order = np.argsort(all_lines, kind="stable")
    return _coalesce(all_lines[order], all_classes[order])


#: ``LineClass`` members by value (a dict lookup per region, not a call).
_LINE_CLASSES = {int(line_class): line_class for line_class in LineClass}


def _coalesce(lines: np.ndarray, classes: np.ndarray) -> list[tuple[Region, LineClass]]:
    """Runs of consecutive same-class line addresses → Regions."""
    if lines.size == 0:
        return []
    breaks = np.flatnonzero((np.diff(lines) != 1) | (np.diff(classes) != 0))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [lines.size]))
    bases = lines[starts]
    sizes = lines[ends - 1] - bases + 1
    return [
        (Region(base, size), _LINE_CLASSES[line_class])
        for base, size, line_class in zip(bases.tolist(), sizes.tolist(), classes[starts].tolist())
    ]


# ---------------------------------------------------------------------------
# Import entry points
# ---------------------------------------------------------------------------

def import_trace(
    path: "str | Path",
    fmt: str = "auto",
    options: "ImportOptions | None" = None,
) -> TraceSet:
    """Parse an external capture into a :class:`TraceSet`.

    ``fmt`` is one of :data:`ALL_FORMATS` or ``"auto"`` (extension +
    content sniffing, :func:`detect_format`).  The returned set carries
    inferred regions (:func:`infer_regions`) and a ``provenance``
    payload that :func:`repro.workloads.io.save_trace_set` persists.
    """
    path = Path(path)
    if options is None:
        options = ImportOptions()
    if not path.is_file():
        raise TraceImportError(path, None, "no such capture file")
    try:
        if fmt == "auto":
            fmt = detect_format(path)
        if fmt == "champsim":
            cores = _import_single_stream(path, options, _parse_champsim)
        elif fmt == "din":
            cores = _import_single_stream(path, options, _parse_din)
        elif fmt == "csv":
            cores = _import_csv_cores(path, options)
        elif fmt == "champsim-bin":
            from repro.workloads.champsim_bin import read_champsim_bin

            cores = read_champsim_bin(path, options)
        else:
            raise ValueError(
                f"unknown trace format {fmt!r}; expected one of "
                f"{ALL_FORMATS} or 'auto'"
            )
    except (UnicodeDecodeError, gzip.BadGzipFile, lzma.LZMAError, EOFError) as error:
        # A binary blob (e.g. an .npz handed to import instead of the
        # experiment CLI) should fail with a located import error.
        raise TraceImportError(
            path, None, f"not a readable capture ({error})"
        ) from None
    try:
        trace_set = TraceSet(
            name=options.name or path.name.split(".")[0],
            cores=cores,
            regions=infer_regions(cores),
        )
    except ValueError as error:
        # Most commonly a per-core barrier-count disagreement.
        raise TraceImportError(path, None, str(error)) from None
    trace_set.provenance = {
        "format": fmt,
        "source": path.name,
        "source_sha256": trace_content_hash(path),
        "num_cores": len(cores),
        "split": options.split if fmt != "csv" else "explicit",
        "line_bytes": options.line_bytes,
        "records": trace_set.total_accesses(),
        "barriers": cores[0].barrier_count(),
    }
    if options.max_records is not None:
        trace_set.provenance["max_records"] = options.max_records
    return trace_set


# ---------------------------------------------------------------------------
# Imported benchmarks (the experiment layer's `imported:<path>` names)
# ---------------------------------------------------------------------------

def is_imported_benchmark(name: str) -> bool:
    """Whether a benchmark name denotes an imported ``.npz`` trace."""
    return isinstance(name, str) and name.startswith(IMPORTED_PREFIX)


def imported_trace_path(name: str) -> Path:
    """The ``.npz`` path behind an ``imported:<path>`` benchmark name."""
    if not is_imported_benchmark(name):
        raise ValueError(f"{name!r} is not an imported-benchmark name")
    path = name[len(IMPORTED_PREFIX):]
    if not path:
        raise ValueError(
            f"empty path in imported-benchmark name {name!r}; "
            f"expected {IMPORTED_PREFIX}<path-to-npz>"
        )
    return Path(path)


#: (resolved path, mtime_ns, size) → sha256, so repeated fingerprinting
#: of one grid's points hashes each trace file once.
_HASH_CACHE: dict[tuple[str, int, int], str] = {}


def trace_content_hash(path: "str | Path") -> str:
    """SHA-256 of a trace file's *content* (memoized per file state).

    The experiment layer addresses imported benchmarks by this hash, so
    a ``RunPoint``'s stored result survives moving the file and is
    invalidated by rewriting it.
    """
    path = Path(path)
    stat = os.stat(path)
    cache_key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    cached = _HASH_CACHE.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    value = digest.hexdigest()
    _HASH_CACHE[cache_key] = value
    return value
