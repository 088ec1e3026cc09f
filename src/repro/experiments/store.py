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

The store has two layers:

* an **in-memory object layer** (inside :class:`ResultStore`) guarantees
  that one process never performs the same simulation twice and
  preserves object identity within an invocation;
* an optional :class:`JsonDirBackend` persists JSON payloads, one
  ``<address>.json`` file per entry in a flat directory, with atomic
  cross-process (and cross-host) writes.  Any number of processes —
  concurrent invocations, or ``--benchmarks`` partitions of one grid on
  several hosts mounting the directory — can share it; each commits
  only its own points.  ``ResultStore(root=None)`` has no backend: it
  deduplicates one invocation only.

Serialization is exact — JSON round-trips Python floats bit-for-bit —
so a disk hit reproduces the original statistics digit for digit.

Controls:

* ``REPRO_RESULT_CACHE=<dir>`` relocates the on-disk store (the
  retired ``shared:<dir>`` spelling is rejected with an error naming
  the plain ``<dir>`` form);
* ``REPRO_RESULT_CACHE=off`` (or ``0``/``none``/``false``) disables disk
  persistence (the in-memory layer still deduplicates one invocation);
* an empty or whitespace-only value is treated as *unset* and falls
  back to the default location (previously it disabled persistence):
  ``REPRO_RESULT_CACHE= cmd`` and unset-variable interpolation usually
  mean "no opinion", and the explicit spellings above remain the way to
  opt out — never as ``Path("")``, which would be the current working
  directory;
* ``python -m repro experiments store stats|purge`` inspects/empties
  the on-disk store from the CLI;
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
import re
import socket
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.common.types import MissStatus
from repro.experiments.runner import RunResult
from repro.sim.stats import SimStats, Tally

#: Bump when the simulator's observable statistics change meaning, so
#: stale on-disk results from an older format can never be returned.
STORE_VERSION = 1

#: Environment variable controlling the on-disk location (a path) or
#: disabling persistence (``off``/``0``/``none``; empty falls back to
#: the default location).
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"

_DISABLED_VALUES = ("0", "off", "none", "disabled", "false")

#: Process-wide sequence for temp-file names: combined with the host
#: and pid it makes every write's temp path unique across *all*
#: concurrent writers (stores in this process, other invocations,
#: partitions on other hosts sharing the directory over a network
#: mount), so no two writers can interleave into the same temp file and
#: ``os.replace`` a torn payload.
_TMP_SEQUENCE = itertools.count()

#: This host's name as it appears in temp-file names: dots and other
#: separators become ``-`` so the name splits cleanly on ``.`` and
#: globs literally.
_TMP_HOST = re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname()) or "localhost"


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
# On-disk persistence
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StoreStats:
    """The on-disk store's footprint (``store stats`` CLI payload)."""

    location: str
    entries: int
    total_bytes: int

    def describe(self) -> str:
        return (
            f"{self.entries} entries, {self.total_bytes / 1024 / 1024:.2f} MB"
            f" at {self.location}"
        )


class JsonDirBackend:
    """One ``<key>.json`` per entry in a flat directory.

    Writes are atomic (unique temp name + ``os.replace``) so concurrent
    writers — other invocations, partitions on other hosts — can share
    the directory without ever exposing a torn payload.  A missing,
    unreadable or torn entry loads as ``None`` (a miss, never a crash).
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        self._sweep_stale_tmp()

    # -- layout --------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*.json")

    def _tmp_path_for(self, key: str) -> Path:
        """A temp path no other writer (host, process or store) can
        collide on: ``<key>.json.<host>.<pid>.<seq>.tmp``."""
        return self.root / (
            f"{key}.json.{_TMP_HOST}.{os.getpid()}.{next(_TMP_SEQUENCE)}.tmp"
        )

    def _sweep_stale_tmp(self) -> None:
        """Drop ``*.tmp`` litter left behind by crashed writers.

        Runs once on backend open; a temp file only survives a write
        that died between creation and ``os.replace``.  Only the store's
        own name shapes are swept — the directory may hold foreign
        files — and only files this host can judge: the legacy
        ``<key>.json.tmp`` and this host's
        ``<key>.json.<host>.<pid>.<seq>.tmp`` whose writer is no longer
        alive.  A live writer's file is an in-flight write, not litter,
        and another host's pid says nothing about liveness here, so its
        files are left alone (unlinking them would make that host's
        ``os.replace`` fail).  Best-effort: pids recycle (a falsely
        "alive" stale file waits for the next sweep) and unlink errors
        are ignored.
        """
        if not self.root.is_dir():
            return
        stale = list(self.root.glob("*.json.tmp"))
        for path in self.root.glob(f"*.json.{_TMP_HOST}.*.tmp"):
            try:
                writer = int(path.name.split(".")[-3])
            except ValueError:
                continue
            if not _pid_alive(writer):
                stale.append(path)
        for path in stale:
            try:
                path.unlink()
            except OSError:
                pass

    # -- entries -------------------------------------------------------------
    def load(self, key: str) -> Mapping | None:
        try:
            with self._entry_path(key).open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # A missing, truncated or foreign file is a miss, not a
            # crash; the fresh result overwrites it.
            return None

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
        return True

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(str(self.root), entries, total)

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
        return StoreStats(str(self.root), removed, freed)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ResultStore:
    """Content-addressed {fingerprint hash → RunResult} with accounting.

    ``root=None`` keeps the store memory-only (one invocation's
    deduplication); a path adds JSON-on-disk persistence through a
    :class:`JsonDirBackend`.  The counters record the outcome of every
    :meth:`get` lookup: ``hits`` (served from memory or disk, the latter
    split out as ``disk_hits``) and ``misses`` (the caller had to
    simulate).
    """

    root: Path | None = None
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    def __post_init__(self) -> None:
        self.backend: "JsonDirBackend | None" = None
        if self.root is not None:
            self.root = Path(self.root)
            self.backend = JsonDirBackend(self.root)
        self._memory: dict[str, object] = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ResultStore":
        """Build the store the CLI uses, honoring ``REPRO_RESULT_CACHE``."""
        value = os.environ.get(CACHE_ENV_VAR)
        if value is not None:
            value = value.strip()
        if not value:
            # Unset, empty or whitespace-only: the default location —
            # an empty value means "no opinion", not "disable", and must
            # never reach Path("") (the current working directory).
            return cls(default_cache_dir())
        if value.lower() in _DISABLED_VALUES:
            return cls(None)
        if value.lower().startswith("shared:"):
            # A store shared across hosts is a plain directory; refuse
            # rather than create a directory literally named "shared:…".
            raise ValueError(
                f"{CACHE_ENV_VAR}={value!r}: the 'shared:' prefix is no "
                f"longer supported; a store shared across processes and "
                f"hosts is a plain directory — set "
                f"{CACHE_ENV_VAR}={value[len('shared:'):].strip()}"
            )
        return cls(Path(value))

    @classmethod
    def memory(cls) -> "ResultStore":
        """A memory-only store (per-invocation deduplication, no disk)."""
        return cls(None)

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
            self.disk_hits += 1
            return obj
        self.misses += 1
        return None

    def put(self, key: str, result: RunResult) -> bool:
        """Store a result; True when it is durably visible to a fresh
        store on the same directory."""
        self._memory[key] = result
        return self.backend is not None and self.backend.store(
            key, encode_result(result)
        )

    def put_payload(self, key: str, payload: Mapping) -> bool:
        """Store a raw payload dict under a content address."""
        self._memory[key] = dict(payload)
        return self.backend is not None and self.backend.store(key, payload)

    def record_hit(self) -> None:
        """Count a hit served outside :meth:`get`: ``execute_spec``
        serves a spec's repeated content address from the first
        occurrence's pending run, before that result is stored."""
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
