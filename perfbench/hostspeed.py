"""Host-speed probes: end-to-end times at a reference host speed.

The shared host this benchmark was built on runs identical work up to
1.5x slower for stretches of seconds to minutes. The process cannot see
it: there is no steal time and CPU time tracks wall time. A run that
lands in a slow stretch would read as a regression of the program.

A probe is a fixed pure-Python kernel (dictionary updates in a loop)
that no change to the program can make faster or slower. Alternated
with a pass of twelve handwritten tests for 150 s, it slowed with the
program: log-log slope 0.95, correlation 0.93 over 618 pairs. Probes run
*between* the workload's operations, never inside a timed one, at most
once per ``INTERVAL_S``; their own time is kept out of every figure. A
window's times are multiplied by :meth:`HostSpeed.scale`, the reference
probe time over the time-weighted mean probe time in that window; a
single operation's by the scale of the ``AROUND_S`` around it.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Seconds between probes, at least.
INTERVAL_S = 0.2
#: A single operation is scaled by the probes within this many seconds
#: of it: a few probes, so one probe's jitter does not set its scale.
AROUND_S = 0.5
#: The kernel's seconds on the reference host: Python 3.11.7 on a quiet
#: core of a 2-core x86-64 host.
REF_S = 0.0027


def kernel() -> int:
    table: dict[int, int] = {}
    for i in range(20000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return len(table)


class HostSpeed:
    """Probe samples of one run: ``(start, seconds)`` pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        #: Seconds spent probing so far, to subtract from any timed
        #: interval that contains probes.
        self.spent = 0.0
        self._next = 0.0

    def probe(self) -> None:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.samples.append((started, ended - started))
        self._starts.append(started)
        self.spent += ended - started
        self._next = ended + INTERVAL_S

    def between(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe. Call
        only between timed operations."""
        if time.perf_counter() >= self._next:
            self.probe()

    def before(self, fn):
        """``fn`` with a rate-limited probe before each call."""

        def probed(*args, **kwargs):
            self.between()
            return fn(*args, **kwargs)

        return probed

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the mean probe time in ``[start, end)``, each
        probe weighted by the time until the next one: multiply a time
        measured in that window by it (and divide a rate)."""
        total = weighted = 0.0
        samples = self.samples
        first = max(0, bisect.bisect_right(self._starts, start) - 1)
        for index in range(first, len(samples)):
            at, seconds = samples[index]
            if at >= end:
                break
            until = samples[index + 1][0] if index + 1 < len(samples) else end
            covered = min(until, end) - max(at, start)
            if covered > 0:
                total += covered
                weighted += covered * seconds
        if not total:
            raise ValueError("no host-speed probe covers the window")
        return REF_S * total / weighted

    def scaled_median(self, starts, seconds) -> float:
        """The median of operations that started at ``starts`` and took
        ``seconds``, each scaled by the probes around it."""
        return statistics.median(
            s * self.scale(at - AROUND_S, at + s + AROUND_S)
            for at, s in zip(starts, seconds)
        )
