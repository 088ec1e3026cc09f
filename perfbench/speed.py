"""Host-speed probe: scales measured host time to a reference speed.

On a shared virtual machine (measured on a 2-vCPU VM), each vCPU
switches between a fast and a slow state (about 1.5x apart) every
~100 ms, and the share of slow time drifts over minutes, so raw medians
of identical runs spread by 30-50%.  :class:`SpeedProbe` samples the
host's current speed *during* a measurement: a SIGALRM timer fires every
:data:`PERIOD` seconds and the handler times :func:`probe_work`, a fixed
pure-Python loop unrelated to the program under test.  An interval's
host time, minus the time the probes themselves took, is then scaled by
``REFERENCE_S / mean probe time`` to give seconds at the reference
speed.  A faster program lowers the scaled time by the same factor as
the raw time; a slower host does not.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

#: Seconds between probes (about 5% of the time goes to probing).
PERIOD = 0.025

#: The reference speed: probe_work() taking this long inside the handler.
#: It is near the mean measured on that 2-vCPU VM, so scaled seconds are
#: close to raw ones there.
REFERENCE_S = 0.0015


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


def _stamp(line: _Line) -> int:
    return line.stamp


def probe_work(rounds: int = 1050) -> None:
    """A fixed, cache-model-like mix of attribute, dict and list work."""
    sets = [[] for _ in range(64)]
    counts: dict = {}
    state = 12345
    for clock in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (state >> 8) % 3072
        lines = sets[addr & 63]
        tag = addr >> 6
        for line in lines:
            if line.tag == tag:
                line.stamp = clock
                break
        else:
            if len(lines) >= 8:
                lines.remove(min(lines, key=_stamp))
            lines.append(_Line(tag, clock))
        counts[addr] = counts.get(addr, 0) + 1


class RawClock:
    """Unscaled host time, for runs that must not be interrupted (traced)."""

    def scaled(self, start: float, end: float) -> float:
        return end - start

    def probe_mean(self, start: float, end: float) -> None:
        return None


class SpeedProbe:
    """Samples probe_work()'s duration every PERIOD seconds while active.

    Use as a context manager around a whole measurement; then
    :meth:`scaled` converts any interval inside it.  With ``workers``,
    the measurement's work runs in that many forked worker processes
    while this one mostly waits: the probe then runs in the workers
    instead (a probe here would time this process's wait for a CPU the
    workers hold), and each worker appends its samples to a file in
    ``spool``.
    """

    def __init__(self, workers: int = 0, spool: "Path | None" = None) -> None:
        self.workers = workers
        self.spool = spool
        #: (end time, duration) of every probe this process took.
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._sink = None
        self._active = False

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        if self._sink is not None:
            self._sink.write(f"{end!r} {end - start!r}\n")

    def _start_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _start_in_worker(self) -> None:
        if not self._active:
            return
        self.samples = []
        self._sink = open(self.spool / f"{os.getpid()}.probe", "a", buffering=1)
        self._start_timer()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._active = True
        if self.workers:
            os.register_at_fork(after_in_child=self._start_in_worker)
        else:
            self._start_timer()
        return self

    def __exit__(self, *exc) -> bool:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def all_samples(self) -> list[tuple[float, float]]:
        """This process's probes, or the workers' when they did the work."""
        if not self.workers:
            return self.samples
        samples = []
        for path in sorted(self.spool.glob("*.probe")):
            for line in path.read_text().splitlines():
                stamp, duration = line.split()
                samples.append((float(stamp), float(duration)))
        return samples

    def probe_mean(self, start: float, end: float) -> "float | None":
        """Mean probe duration inside ``[start, end]``, else over all probes."""
        samples = self.all_samples()
        pool = [duration for stamp, duration in samples if start <= stamp <= end]
        pool = pool or [duration for _stamp, duration in samples]
        return sum(pool) / len(pool) if pool else None

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at the reference speed.

        Probes that ended inside the interval give its speed, and the
        time they took is removed from it (spread over the workers when
        the workers took them); an interval too short to hold a probe
        takes the mean of every probe so far.
        """
        mean = self.probe_mean(start, end)
        if mean is None:
            return end - start
        probing = sum(
            duration for stamp, duration in self.all_samples() if start <= stamp <= end
        ) / (self.workers or 1)
        return (end - start - probing) * REFERENCE_S / mean
