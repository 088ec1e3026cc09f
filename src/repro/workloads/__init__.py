"""Workloads: trace format, synthetic generators, benchmark catalog."""

from repro.workloads.benchmarks import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    BenchmarkProfile,
    build_trace,
    get_profile,
)
from repro.workloads.imports import (
    ImportOptions,
    TraceImportError,
    detect_format,
    export_csv,
    import_trace,
    infer_regions,
    trace_content_hash,
)
from repro.workloads.champsim_bin import (
    read_champsim_bin,
    synthesize_champsim_bin,
    write_champsim_bin,
)
from repro.workloads.io import load_trace_set, save_trace_set
from repro.workloads.streaming import StreamingTraceSet, stream_chunk_records
from repro.workloads.generators import (
    ComponentStream,
    compute_gaps,
    interleave_components,
    loop_component,
    migratory_component,
    producer_consumer_component,
    stream_component,
    zipf_component,
)
from repro.workloads.trace import CoreTrace, TraceSet

__all__ = [
    "BENCHMARKS",
    "BENCHMARK_ORDER",
    "BenchmarkProfile",
    "ComponentStream",
    "CoreTrace",
    "ImportOptions",
    "StreamingTraceSet",
    "TraceImportError",
    "TraceSet",
    "build_trace",
    "read_champsim_bin",
    "stream_chunk_records",
    "synthesize_champsim_bin",
    "write_champsim_bin",
    "compute_gaps",
    "detect_format",
    "export_csv",
    "get_profile",
    "import_trace",
    "infer_regions",
    "interleave_components",
    "load_trace_set",
    "trace_content_hash",
    "loop_component",
    "migratory_component",
    "save_trace_set",
    "producer_consumer_component",
    "stream_component",
    "zipf_component",
]
