"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public functions and methods of the simulator's layers in place, so
every call into a layer opens a span; it must run before any engine is
built, because engines and kernels hoist bound methods into closures.

A span has a name, a start, an end and a parent.  Most spans are on the
simulator's hot path (millions per run), so they are aggregated as they
close, per ``(name, parent name, inside simulate())``: call count, total
duration and the time covered by child spans.  Self time is the total
minus the child time.  Spans of the coarse names in :data:`KEPT` (one
per simulation, store write, trace build, ...) are also kept whole in
memory, with their parent, and written out by :meth:`Recorder.dump`.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import threading
import time

#: Span names kept whole (start, end, parent), not only aggregated.
KEPT = frozenset((
    "experiments.execute_spec",
    "experiments.store.put",
    "sim.kernel.simulate",
    "sim.stats.finalize",
    "workloads.build_trace",
    "workloads.streaming.scan",
))

#: The span that marks simulated work: self times inside it must add up
#: to its duration.
SIMULATE = "sim.kernel.simulate"


class _ThreadState:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: Open spans, innermost last: [name, child seconds, kept span id].
        self.stack: list = []
        self.sim_depth = 0
        #: (name, parent name, inside simulate) -> [calls, seconds, child seconds]
        self.totals: dict = {}


class Recorder:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._next_id = 0
        #: Kept spans: (id, parent id, name, start, end, thread).
        self.spans: list[tuple] = []
        #: Event counts recorded next to spans (e.g. windows pulled).
        self.counts: collections.Counter = collections.Counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        local, new_state, perf = self._local, self._state, time.perf_counter
        kept = name in KEPT
        marks_simulate = name == SIMULATE
        spans = self.spans
        new_id = self._new_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [name, 0.0, new_id() if kept else None]
            stack.append(frame)
            if marks_simulate:
                state.sim_depth += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                stack.pop()
                in_simulate = state.sim_depth > 0
                if marks_simulate:
                    state.sim_depth -= 1
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (name, parent[0], in_simulate)
                else:
                    key = (name, None, in_simulate)
                total = state.totals.get(key)
                if total is None:
                    state.totals[key] = [1, duration, frame[1]]
                else:
                    total[0] += 1
                    total[1] += duration
                    total[2] += frame[1]
                if kept:
                    parent_id = next(
                        (f[2] for f in reversed(stack) if f[2] is not None), None
                    )
                    spans.append((frame[2], parent_id, name, start, end, state.thread))

        return wrapper

    def wrap_iter(self, name: str, fn):
        """``fn`` returning an iterator whose every ``next()`` is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            step = self.wrap(name, inner.__next__)

            def timed():
                try:
                    while True:
                        try:
                            item = step()
                        except StopIteration:
                            return
                        yield item
                finally:
                    close = getattr(inner, "close", None)
                    if close is not None:
                        close()

            return timed()

        return wrapper

    # -- reading ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates over every thread: key -> [calls, seconds, child seconds]."""
        merged: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, seconds, child) in list(state.totals.items()):
                total = merged.setdefault(key, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += seconds
                total[2] += child
        return merged

    def dump(self, path, extra: dict) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        aggregates = [
            {"name": name, "parent": parent, "in_simulate": in_sim,
             "calls": calls, "total_s": seconds, "self_s": seconds - child}
            for (name, parent, in_sim), (calls, seconds, child)
            in sorted(self.snapshot().items(), key=lambda item: -item[1][1])
        ]
        spans = [
            {"id": span_id, "parent": parent, "name": name,
             "start": start, "end": end, "thread": thread}
            for span_id, parent, name, start, end, thread in self.spans
        ]
        document = dict(extra, aggregates=aggregates, spans=spans)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def calls(snapshot: dict, prefix: str) -> int:
    """Calls of every span named ``prefix`` or under ``prefix.``."""
    return sum(total[0] for key, total in snapshot.items() if _under(key[0], prefix))


def self_seconds(snapshot: dict, prefix: str) -> float:
    return sum(
        total[1] - total[2] for key, total in snapshot.items() if _under(key[0], prefix)
    )


def inclusive_seconds(snapshot: dict, name: str) -> float:
    """Duration of the outermost spans called ``name`` (no double counting
    when the name nests inside itself)."""
    return sum(
        total[1] for (span, parent, _in_sim), total in snapshot.items()
        if span == name and parent != name
    )


def unattributed_seconds(snapshot: dict) -> float:
    """simulate() wall time not covered by the self time of any span in it."""
    simulated = inclusive_seconds(snapshot, SIMULATE)
    attributed = sum(
        total[1] - total[2] for (name, _parent, in_sim), total in snapshot.items()
        if in_sim
    )
    return simulated - attributed


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _wrap_class(recorder: Recorder, cls, layer: str) -> None:
    """Wrap the public methods and properties ``cls`` itself defines."""
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(value, property) and value.fget is not None:
            setattr(cls, attr, property(
                recorder.wrap(f"{layer}.{attr}", value.fget),
                value.fset, value.fdel, value.__doc__,
            ))
        elif inspect.isfunction(value):
            setattr(cls, attr, recorder.wrap(f"{layer}.{attr}", value))


def _with_subclasses(cls) -> list:
    """``cls`` and every loaded subclass, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_with_subclasses(sub)))
    return list(found)


def _replace_everywhere(original, replacement) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``
    (callers that did ``from module import function`` included)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Call before any engine is built.  Importing the modules here also
    registers every scheme, so the subclass walks below see them all.
    """
    import repro.experiments  # noqa: F401  (loads every figure module)
    from repro.cache.array import SetAssociativeCache
    from repro.cache.l1 import L1Cache
    from repro.cache.llc import LLCSlice
    from repro.cache.replacement import LRUPolicy, ModifiedLRUPolicy
    from repro.coherence.sharers import AckwiseSharers, FullMapSharers
    from repro.core.classifier import ClassifierState, LocalityClassifier
    from repro.dram.controller import DramSystem, MemoryController
    from repro.energy.model import EnergyModel
    from repro.experiments import spec as spec_module
    from repro.experiments.store import ResultStore
    from repro.network.mesh import Mesh
    from repro.schemes.base import ProtocolEngine
    from repro.sim import simulator
    from repro.sim.stats import SimStats
    from repro.workloads import benchmarks, champsim_bin, streaming
    from repro.workloads.trace import TraceSet

    classes = [
        (SetAssociativeCache, "cache.array"),
        (LRUPolicy, "cache.replacement"),
        (ModifiedLRUPolicy, "cache.replacement"),
        (LLCSlice, "cache.llc"),
        (L1Cache, "cache.l1"),
        (FullMapSharers, "coherence.sharers"),
        (AckwiseSharers, "coherence.sharers"),
        (Mesh, "network.mesh"),
        (DramSystem, "dram"),
        (MemoryController, "dram"),
        (EnergyModel, "energy"),
        (ResultStore, "experiments.store"),
        (SimStats, "sim.stats"),
        (TraceSet, "workloads.trace"),
    ]
    for base in (LocalityClassifier, ClassifierState):
        classes.extend((cls, "core.classifier") for cls in _with_subclasses(base))
    for cls, layer in classes:
        _wrap_class(recorder, cls, layer)

    for module, attr, name in (
        (benchmarks, "build_trace", "workloads.build_trace"),
        (simulator, "simulate", SIMULATE),
        (spec_module, "execute_spec", "experiments.execute_spec"),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, recorder.wrap(name, original))

    # The capture decoder is a generator: time each block it yields.  The
    # streaming builder imports it at call time, so patching the module
    # attribute reaches both the pass-1 scan and the producer thread.
    champsim_bin.iter_access_segments = recorder.wrap_iter(
        "workloads.champsim_bin.decode", champsim_bin.iter_access_segments
    )
    # Consumer-side waits on the decode thread's queue.
    streaming.SegmentProducer.__iter__ = recorder.wrap_iter(
        "workloads.streaming.stall", streaming.SegmentProducer.__iter__
    )
    scan = vars(streaming.StreamingTraceSet)["from_champsim_bin"].__func__
    streaming.StreamingTraceSet.from_champsim_bin = classmethod(
        recorder.wrap("workloads.streaming.scan", scan)
    )
    for source in _with_subclasses(streaming.SegmentSource):
        if "pull" in vars(source):
            source.pull = _counting_pull(recorder, source.pull)

    # Engine time: the access closure the kernels call once per access,
    # and the generic entry point used when no closure is offered.
    access = ProtocolEngine.access
    ProtocolEngine.access = recorder.wrap("schemes.engine.access", access)
    make_fast_access = ProtocolEngine.make_fast_access

    @functools.wraps(make_fast_access)
    def traced_make_fast_access(self):
        closure = make_fast_access(self)
        if closure is None:
            return None
        return recorder.wrap("schemes.engine.access", closure)

    ProtocolEngine.make_fast_access = traced_make_fast_access
    for cls in _with_subclasses(ProtocolEngine):
        if "finalize" in vars(cls):
            cls.finalize = recorder.wrap("sim.stats.finalize", vars(cls)["finalize"])


def _counting_pull(recorder: Recorder, pull):
    """A source's ``pull`` as a span, counting the windows it hands out."""
    timed = recorder.wrap("workloads.streaming.pull", pull)

    @functools.wraps(pull)
    def wrapper(self, core):
        window = timed(self, core)
        if window is not None:
            recorder.counts["workloads.streaming.windows"] += 1
        return window

    return wrapper
