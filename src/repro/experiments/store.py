"""Content-addressed result store for experiment runs.

Every simulation the experiment layer performs is fully determined by a
:class:`~repro.experiments.spec.RunPoint` resolved against an
:class:`~repro.experiments.runner.ExperimentSetup`: the scheme label,
the benchmark, the *effective* machine configuration (base machine plus
the point's overrides), the trace scale and the workload seed.  That
resolved description — the point's *fingerprint* — hashes to a stable
content address, and :class:`ResultStore` maps addresses to
:class:`~repro.experiments.runner.RunResult` payloads (and, for the
Figure 1 motivation study, raw profile payloads — see
:meth:`ResultStore.get_payload`).

The store is split into two layers:

* an **in-memory object layer** (inside :class:`ResultStore`) guarantees
  that one process never performs the same simulation twice and
  preserves object identity within an invocation;
* a pluggable :class:`StoreBackend` persists JSON payloads.  Three stock
  backends ship:

  - :class:`MemoryBackend` — payload dict in memory, no persistence
    (``ResultStore(root=None)``; per-invocation deduplication only);
  - :class:`JsonDirBackend` — one ``<address>.json`` file per entry in a
    flat directory, with atomic cross-process writes and an optional
    **size bound with LRU eviction** (reads refresh recency);
  - :class:`SharedDirBackend` — the filesystem-mounted *shared* layout
    for many workers/machines: the same atomic-write discipline plus a
    two-hex-character fanout (``ab/<address>.json``) so network mounts
    never hold one huge directory.  This is the read-through cache the
    distributed experiment service (:mod:`repro.experiments.service`)
    commits results through.

The simulation *kernel* is deliberately **excluded** from the
fingerprint: the kernels are differentially verified bit-identical
(:mod:`repro.testing`), so reference and fast runs of the same point
are interchangeable payloads.  Serialization is exact —
JSON round-trips Python floats bit-for-bit — so a disk hit reproduces
the original statistics digit for digit.

Controls:

* ``REPRO_RESULT_CACHE=<dir>`` relocates the on-disk store;
* ``REPRO_RESULT_CACHE=shared:<dir>`` selects the shared (fanout)
  backend at that directory — the spelling broker and workers use when
  they mount one store across machines;
* ``REPRO_RESULT_CACHE=off`` (or ``0``/``none``/``false``) disables disk
  persistence (the in-memory layer still deduplicates one invocation);
* an empty or whitespace-only value is treated as *unset* and falls
  back to the default location (previously it disabled persistence):
  ``REPRO_RESULT_CACHE= cmd`` and unset-variable interpolation usually
  mean "no opinion", and the explicit spellings above remain the way to
  opt out — never as ``Path("")``, which would be the current working
  directory;
* ``REPRO_RESULT_CACHE_MAX_MB=<float>`` bounds the on-disk store size;
  least-recently-*used* entries are evicted when a write overflows it
  (``python -m repro experiments store stats|purge`` inspects/empties
  the store from the CLI);
* ``--no-cache`` on the CLI does the same as ``off`` for a single
  invocation.

Hit/miss accounting (:attr:`ResultStore.hits` / :attr:`misses`) is the
observable contract the test-suite and the CI smoke jobs assert on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Callable, Iterator, Mapping, Protocol, runtime_checkable

from repro.common.types import MissStatus
from repro.experiments.runner import RunResult
from repro.sim.stats import SimStats, Tally

#: Bump when the simulator's observable statistics change meaning, so
#: stale on-disk results from an older format can never be returned.
STORE_VERSION = 1

#: Environment variable controlling the on-disk location (a path, or
#: ``shared:<path>`` for the fanout layout) or disabling persistence
#: (``off``/``0``/``none``; empty falls back to the default location).
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"

#: Environment variable bounding the on-disk store size, in megabytes
#: (unset, empty or <= 0: unbounded).
CACHE_MAX_MB_ENV_VAR = "REPRO_RESULT_CACHE_MAX_MB"

#: ``REPRO_RESULT_CACHE`` prefix selecting :class:`SharedDirBackend`.
SHARED_PREFIX = "shared:"

_DISABLED_VALUES = ("0", "off", "none", "disabled", "false")

#: Process-wide sequence for temp-file names: combined with the pid it
#: makes every write's temp path unique across *all* concurrent writers
#: (stores in this process, ``--parallel`` workers, distributed-service
#: workers on other hosts sharing the directory over a network mount),
#: so no two writers can interleave into the same temp file and
#: ``os.replace`` a torn payload.
_TMP_SEQUENCE = itertools.count()


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0; EPERM still means alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def default_cache_dir() -> Path:
    """The XDG-style default location for the on-disk store."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-llc" / "results"


def max_bytes_from_env() -> int | None:
    """The ``REPRO_RESULT_CACHE_MAX_MB`` size bound in bytes, if set."""
    value = os.environ.get(CACHE_MAX_MB_ENV_VAR, "").strip()
    if not value:
        return None
    try:
        megabytes = float(value)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def fingerprint_key(fingerprint: Mapping) -> str:
    """Stable content address for a resolved run fingerprint.

    The fingerprint is canonicalized (sorted keys, minimal separators)
    and hashed together with :data:`STORE_VERSION`; any change to the
    machine configuration, scheme, benchmark, scale or seed produces a
    different address.
    """
    payload = {"store_version": STORE_VERSION, "point": fingerprint}
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# RunResult <-> JSON (exact round-trip)
# ---------------------------------------------------------------------------

def encode_result(result: RunResult) -> dict:
    """JSON-serializable dump of a :class:`RunResult` (exact)."""
    stats = result.stats
    return {
        "scheme": result.scheme,
        "benchmark": result.benchmark,
        "asr_level": result.asr_level,
        "energy_breakdown": dict(result.energy_breakdown),
        "stats": {
            "num_cores": stats.num_cores,
            "completion_time": stats.completion_time,
            "core_finish": list(stats.core_finish),
            "counters": dict(stats.counters),
            "energy_counts": dict(stats.energy_counts),
            "latency": dict(stats.latency),
            "miss_status": {
                status.name: count for status, count in stats.miss_status.items()
            },
        },
    }


def decode_result(payload: Mapping) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`encode_result` output."""
    raw = payload["stats"]
    stats = SimStats(
        num_cores=raw["num_cores"],
        counters=Tally(raw["counters"]),
        energy_counts=Tally(raw["energy_counts"]),
        latency=Tally(raw["latency"]),
        miss_status=Tally(
            {MissStatus[name]: count for name, count in raw["miss_status"].items()}
        ),
        core_finish=list(raw["core_finish"]),
        completion_time=raw["completion_time"],
    )
    return RunResult(
        scheme=payload["scheme"],
        benchmark=payload["benchmark"],
        stats=stats,
        energy_breakdown=dict(payload["energy_breakdown"]),
        asr_level=payload["asr_level"],
    )


# ---------------------------------------------------------------------------
# Backend protocol and the stock implementations
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StoreStats:
    """One backend's persisted footprint (``store stats`` CLI payload)."""

    location: str
    entries: int
    total_bytes: int
    max_bytes: int | None = None
    evictions: int = 0

    def describe(self) -> str:
        line = (
            f"{self.entries} entries, {self.total_bytes / 1024 / 1024:.2f} MB"
            f" at {self.location}"
        )
        if self.max_bytes is not None:
            line += f" (bound {self.max_bytes / 1024 / 1024:.2f} MB)"
        if self.evictions:
            line += f", {self.evictions} evicted this process"
        return line


@runtime_checkable
class StoreBackend(Protocol):
    """Persistence layer behind :class:`ResultStore`.

    A backend maps content addresses to JSON-serializable payload dicts.
    ``load`` returns ``None`` for unknown, unreadable or torn entries (a
    miss, never a crash); ``store`` returns whether the payload is
    durably visible to a *fresh* store sharing this backend.
    ``persistent`` distinguishes backends whose hits the accounting
    reports as served "from disk".
    """

    persistent: bool

    def load(self, key: str) -> "Mapping | None": ...

    def store(self, key: str, payload: Mapping) -> bool: ...

    def delete(self, key: str) -> bool: ...

    def keys(self) -> Iterator[str]: ...

    def location(self) -> str: ...

    def stats(self) -> StoreStats: ...


class MemoryBackend:
    """Payloads in a plain dict — no persistence beyond the object."""

    persistent = False

    def __init__(self) -> None:
        self._payloads: dict[str, Mapping] = {}

    def load(self, key: str) -> Mapping | None:
        return self._payloads.get(key)

    def store(self, key: str, payload: Mapping) -> bool:
        self._payloads[key] = payload
        return True

    def delete(self, key: str) -> bool:
        return self._payloads.pop(key, None) is not None

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._payloads))

    def location(self) -> str:
        return "<memory>"

    def stats(self) -> StoreStats:
        return StoreStats(self.location(), len(self._payloads), 0)


class JsonDirBackend:
    """One ``<key>.json`` per entry in a flat directory.

    Writes are atomic (unique temp name + ``os.replace``) so concurrent
    writers — ``--parallel`` shards, distributed-service workers, other
    invocations — can share the directory without ever exposing a torn
    payload.  ``max_bytes`` bounds the directory size: when a write
    overflows it, the least-recently-used entries are evicted (a read
    hit refreshes an entry's mtime, so recency tracks *use*, not just
    creation).
    """

    persistent = True

    def __init__(self, root: "Path | str", max_bytes: int | None = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.evictions = 0
        self._sweep_stale_tmp()

    # -- layout --------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*.json")

    def _tmp_path_for(self, key: str) -> Path:
        """A temp path no other writer (process or store) can collide on."""
        return self._entry_path(key).parent / (
            f"{key}.json.{os.getpid()}.{next(_TMP_SEQUENCE)}.tmp"
        )

    def _sweep_stale_tmp(self) -> None:
        """Drop ``*.tmp`` litter left behind by crashed writers.

        Runs once on backend open; a temp file only survives a write
        that died between creation and ``os.replace``.  Only the store's
        own name shapes are swept (``<key>.json.tmp`` from older
        versions, ``<key>.json.<pid>.<seq>.tmp`` from this one) — the
        directory may hold foreign files — and a pid-stamped file whose
        writer is still alive is left alone (it is an in-flight write of
        a concurrent invocation, not litter).  Best-effort: pids recycle
        (a falsely "alive" stale file waits for the next sweep) and
        unlink errors are ignored.  The sweep also descends one fanout
        level so the shared layout is covered.
        """
        if not self.root.is_dir():
            return
        patterns = ("*.json.tmp", "*.json.*.tmp", "*/*.json.tmp", "*/*.json.*.tmp")
        for pattern in patterns:
            for stale in self.root.glob(pattern):
                parts = stale.name.split(".")
                # <key>.json.<pid>.<seq>.tmp — skip live writers.
                if len(parts) >= 5:
                    try:
                        writer = int(parts[-3])
                    except ValueError:
                        writer = None
                    if writer is not None and _pid_alive(writer):
                        continue
                try:
                    stale.unlink()
                except OSError:
                    pass

    # -- StoreBackend --------------------------------------------------------
    def load(self, key: str) -> Mapping | None:
        path = self._entry_path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # A truncated or foreign file is a miss, not a crash; the
            # fresh result overwrites it.
            return None
        if self.max_bytes is not None:
            # Recency tracks *use*: a read hit refreshes the entry so
            # LRU eviction spares the working set.
            try:
                os.utime(path)
            except OSError:
                pass
        return payload

    def store(self, key: str, payload: Mapping) -> bool:
        path = self._entry_path(key)
        tmp = self._tmp_path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            # Persistence is best-effort; the caller's in-memory layer
            # still holds the result for this invocation.
            tmp.unlink(missing_ok=True)
            return False
        self._enforce_size_bound()
        return True

    def delete(self, key: str) -> bool:
        try:
            self._entry_path(key).unlink()
        except OSError:
            return False
        return True

    def keys(self) -> Iterator[str]:
        for path in self._entries():
            yield path.name[: -len(".json")]

    def location(self) -> str:
        return str(self.root)

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(
            self.location(), entries, total,
            max_bytes=self.max_bytes, evictions=self.evictions,
        )

    # -- maintenance ---------------------------------------------------------
    def purge(self) -> StoreStats:
        """Delete every entry; returns what was removed."""
        removed = 0
        freed = 0
        for path in list(self._entries()):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return StoreStats(self.location(), removed, freed)

    def _enforce_size_bound(self) -> None:
        """Evict least-recently-used entries beyond ``max_bytes``."""
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first = least recently used
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1


class SharedDirBackend(JsonDirBackend):
    """The filesystem-mounted shared layout for many workers/machines.

    Entries fan out into 256 two-hex-character subdirectories keyed by
    the address prefix (``ab/<address>.json``) — the sharding pattern
    that keeps a store shared over NFS (or any network mount) from
    concentrating every lookup in one directory.  Atomicity and
    read-through semantics are inherited from :class:`JsonDirBackend`;
    distributed-service workers commit results here and brokers (or any
    later invocation) read them through into their in-memory layer.
    """

    FANOUT = 2
    MARKER = ".shared-layout"

    def __init__(self, root: "Path | str", max_bytes: int | None = None) -> None:
        super().__init__(root, max_bytes=max_bytes)
        # Stamp the layout eagerly: a worker autodetecting this root
        # (``open_disk_backend``) must pick the fanout layout even while
        # the store is still empty, or its commits would land where the
        # broker never looks.
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / self.MARKER).touch()
        except OSError:
            pass

    def _entry_path(self, key: str) -> Path:
        prefix = key[: self.FANOUT] if len(key) > self.FANOUT else "_"
        return self.root / prefix / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*/*.json")


def open_disk_backend(
    root: "Path | str", max_bytes: int | None = None
) -> JsonDirBackend:
    """Open an existing on-disk store, detecting its layout.

    A directory holding the shared-layout marker (or, for pre-marker
    stores, any fanout subdirectory) opens as :class:`SharedDirBackend`;
    anything else opens flat.  Used by distributed workers and the
    ``store stats``/``store purge`` CLI so one ``--store`` flag serves
    both layouts.
    """
    root = Path(root)
    if root.is_dir():
        if (root / SharedDirBackend.MARKER).exists():
            return SharedDirBackend(root, max_bytes=max_bytes)
        for child in root.iterdir():
            if child.is_dir() and len(child.name) == SharedDirBackend.FANOUT:
                try:
                    int(child.name, 16)
                except ValueError:
                    continue
                return SharedDirBackend(root, max_bytes=max_bytes)
    return JsonDirBackend(root, max_bytes=max_bytes)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ResultStore:
    """Content-addressed {fingerprint hash → RunResult} with accounting.

    ``root=None`` keeps the store memory-only (one invocation's
    deduplication); a path adds JSON-on-disk persistence; an explicit
    ``backend`` plugs in any :class:`StoreBackend` (the distributed
    service passes :class:`SharedDirBackend`).  The counters record the
    outcome of every :meth:`get`/:meth:`get_or_run` lookup: ``hits``
    (served from memory or the backend, split out as ``disk_hits``) and
    ``misses`` (the caller had to simulate).
    """

    root: Path | None = None
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    backend: "StoreBackend | None" = None

    def __post_init__(self) -> None:
        if self.backend is None:
            if self.root is not None:
                self.root = Path(self.root)
                self.backend = JsonDirBackend(self.root)
            else:
                self.backend = MemoryBackend()
        else:
            backend_root = getattr(self.backend, "root", None)
            if self.root is None and backend_root is not None:
                self.root = Path(backend_root)
        self._memory: dict[str, object] = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ResultStore":
        """Build the store the CLI uses, honoring ``REPRO_RESULT_CACHE``
        (and the ``REPRO_RESULT_CACHE_MAX_MB`` size bound)."""
        value = os.environ.get(CACHE_ENV_VAR)
        if value is not None:
            value = value.strip()
        if not value:
            # Unset, empty or whitespace-only: the default location —
            # an empty value means "no opinion", not "disable", and must
            # never reach Path("") (the current working directory).
            return cls(backend=JsonDirBackend(
                default_cache_dir(), max_bytes=max_bytes_from_env()
            ))
        if value.lower() in _DISABLED_VALUES:
            return cls(None)
        if value.lower().startswith(SHARED_PREFIX):
            shared_root = value[len(SHARED_PREFIX):].strip()
            if shared_root:
                return cls.shared(shared_root, max_bytes=max_bytes_from_env())
        return cls(backend=JsonDirBackend(
            Path(value), max_bytes=max_bytes_from_env()
        ))

    @classmethod
    def memory(cls) -> "ResultStore":
        """A memory-only store (per-invocation deduplication, no disk)."""
        return cls(None)

    @classmethod
    def shared(
        cls, root: "Path | str", max_bytes: int | None = None
    ) -> "ResultStore":
        """A store over the shared (fanout) filesystem backend."""
        return cls(backend=SharedDirBackend(root, max_bytes=max_bytes))

    # -- lookups -------------------------------------------------------------
    def key_for(self, fingerprint: Mapping) -> str:
        return fingerprint_key(fingerprint)

    def get(self, key: str) -> RunResult | None:
        """Look up a content address, counting the hit or miss."""
        return self._lookup(key, decode_result)

    def get_payload(self, key: str) -> Mapping | None:
        """Look up a raw payload dict (e.g. a Figure 1 run-length
        profile), with the same hit/miss accounting as :meth:`get`."""
        return self._lookup(key, dict)

    def _lookup(self, key: str, decode: Callable) -> "object | None":
        obj = self._memory.get(key)
        if obj is not None:
            self.hits += 1
            return obj
        payload = self.backend.load(key) if self.backend is not None else None
        if payload is not None:
            try:
                obj = decode(payload)
            except (KeyError, ValueError, TypeError):
                # Foreign/stale payload under this address: a miss.
                obj = None
        if obj is not None:
            self._memory[key] = obj
            self.hits += 1
            if getattr(self.backend, "persistent", False):
                self.disk_hits += 1
            return obj
        self.misses += 1
        return None

    def fetch(self, key: str) -> RunResult | None:
        """Uncounted read-through (no hit/miss accounting).

        The distributed service's plumbing — brokers collecting results
        a worker committed, workers checking whether a leased point was
        already served — reads through here so the user-facing counters
        keep the sequential path's meaning: one lookup per RunPoint.
        """
        obj = self._memory.get(key)
        if isinstance(obj, RunResult):
            return obj
        payload = self.backend.load(key) if self.backend is not None else None
        if payload is None:
            return None
        try:
            result = decode_result(payload)
        except (KeyError, ValueError, TypeError):
            return None
        self._memory[key] = result
        return result

    def put(self, key: str, result: RunResult) -> bool:
        """Store a result; True when it is durably visible to a fresh
        store sharing this backend (distributed workers gate their
        lease completion on this)."""
        self._memory[key] = result
        return self.backend.store(key, encode_result(result))

    def put_payload(self, key: str, payload: Mapping) -> bool:
        """Store a raw payload dict under a content address."""
        self._memory[key] = dict(payload)
        return self.backend.store(key, payload)

    def get_or_run(self, key: str, run: Callable[[], RunResult]) -> RunResult:
        """Return the stored result or execute ``run`` and store it."""
        result = self.get(key)
        if result is None:
            result = run()
            self.put(key, result)
        return result

    def record_hit(self) -> None:
        """Count a hit served outside :meth:`get` (the parallel executor
        deduplicates same-address points before their result is stored,
        keeping its accounting identical to the sequential path)."""
        self.hits += 1

    # -- accounting ----------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served without simulating (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        """One-line accounting summary (printed by the CLI to stderr)."""
        line = f"{self.hits} hits ({self.disk_hits} from disk), {self.misses} misses"
        if self.lookups:
            line += f", {self.hit_rate():.0%} hit rate"
        return f"result-store: {line}"

    # -- compatibility delegates --------------------------------------------
    # The pre-backend store exposed these paths directly; the concurrent-
    # writer regression tests (and possibly external tooling) still poke
    # them, so they forward to the disk backend.
    def _path_for(self, key: str) -> Path:
        assert isinstance(self.backend, JsonDirBackend)
        return self.backend._entry_path(key)

    def _tmp_path_for(self, key: str) -> Path:
        assert isinstance(self.backend, JsonDirBackend)
        return self.backend._tmp_path_for(key)

    def _sweep_stale_tmp(self) -> None:
        if isinstance(self.backend, JsonDirBackend):
            self.backend._sweep_stale_tmp()
