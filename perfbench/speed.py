"""Speed-scaled timing for a machine whose speed drifts.

On a shared host the same pure-Python work can take twice as long from one
minute to the next, far more than the changes this benchmark must resolve.
The stopwatch therefore runs a fixed reference loop (the benchmark's own
code, never the program's) four times a second while it times work, and
scales each interval between two samples by ``REFERENCE_S / reference
time`` averaged over its two ends: the result reads as seconds on a machine
that runs the reference loop in ``REFERENCE_S``.  The raw seconds are kept
too, and the sampling time itself is excluded.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional

#: Nominal seconds for one reference loop (about its time on an unloaded
#: 2-core Xeon VM); scaled times read as seconds at that speed.
REFERENCE_S = 0.0055
#: Iterations of one full reference loop.
REFERENCE_ITERATIONS = 10000
#: Reference loops per speed sample; the sample is their median.
SAMPLE_REPEATS = 3
#: Iterations of a quick sample (about 0.5 ms), for callers that cannot
#: pause for a full one.
QUICK_ITERATIONS = 1000
#: Seconds between timer-driven speed samples.
SAMPLE_EVERY_S = 0.25


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key: int, nxt: Optional["_Node"]) -> None:
        self.key = key
        self.next = nxt


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter work: calls, attribute access, small allocations,
    dict and list traffic -- the mix the simulator and analyser spend their
    time on."""
    table: dict = {}
    head: Optional[_Node] = None
    acc = 0
    for i in range(iterations):
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + 1
        head = _Node(key, head if i % 64 else None)
        pair = (key, i & 255)
        acc += pair[0] ^ pair[1]
        if head.next is not None:
            acc += head.next.key
    acc += sum(sorted(table.values())[:16])
    return acc


def sample_reference(repeats: int = SAMPLE_REPEATS,
                     iterations: int = REFERENCE_ITERATIONS) -> float:
    """Median seconds of ``repeats`` reference loops of ``iterations``
    iterations, now, in seconds per full loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop(iterations)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * REFERENCE_ITERATIONS / iterations


class Stopwatch:
    """Accumulates raw and speed-scaled wall and CPU seconds.

    The time between two speed samples is an interval; it is scaled by the
    mean of the samples at its ends.  Samples are taken at :meth:`start`,
    :meth:`lap`, :meth:`stop` and, when ``sample_every`` is set, from a
    ``SIGALRM`` timer every ``sample_every`` seconds, so long stretches of
    program code with no natural boundary are still sampled.  The handler
    only runs the reference loop; its own time is excluded.  Use no timer
    where the program runs on a real-time schedule: it would stall it.
    """

    def __init__(self, sample_every: Optional[float] = SAMPLE_EVERY_S) -> None:
        self.sample_every = sample_every
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.scaled_wall_s = 0.0
        self.scaled_cpu_s = 0.0
        self.samples: List[float] = []
        #: index of the sample that opened the current interval
        self._first = 0
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._busy = False
        self._running = False

    def start(self) -> None:
        self._running = True
        self.samples.append(sample_reference())
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        if self.sample_every:
            # The handler stays installed after stop(): an alarm raised just
            # before the timer is disarmed then finds a no-op, not the
            # default action, which ends the process.
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self._running and not self._busy:
            self.lap()

    def quick_sample(self) -> None:
        """Take a short speed sample inside the current interval; its time is
        excluded.  The interval is scaled by the mean of all its samples."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(sample_reference(repeats=1, iterations=QUICK_ITERATIONS))
        self._wall0 += time.perf_counter() - wall0
        self._cpu0 += time.process_time() - cpu0

    def lap(self) -> None:
        """Close the current interval here, sample the speed, open the next."""
        self._busy = True
        try:
            wall = time.perf_counter() - self._wall0
            cpu = time.process_time() - self._cpu0
            self.samples.append(sample_reference())
            factor = REFERENCE_S / statistics.mean(self.samples[self._first:])
            self._first = len(self.samples) - 1
            self.wall_s += wall
            self.cpu_s += cpu
            self.scaled_wall_s += wall * factor
            self.scaled_cpu_s += cpu * factor
            self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        finally:
            self._busy = False

    def stop(self) -> None:
        if self.sample_every:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._running = False
        self.lap()

    def factor(self) -> float:
        """Mean speed factor over every sample taken."""
        return REFERENCE_S / statistics.mean(self.samples)
