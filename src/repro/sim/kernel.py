"""Discrete-event simulation kernel.

A :class:`Simulator` owns an ordered collection of timestamped events and a
seeded random generator.  All nondeterminism in the system (latency jitter,
message loss, clock skew) is drawn from that generator, so any run is exactly
reproducible from ``(seed, parameters)`` — which is what lets the test suite
assert, e.g., that the Figure 4 trading anomaly occurs at a specific tick.

Events with equal timestamps are ordered by insertion sequence number, so the
execution order is a deterministic function of the schedule calls alone.

The event structure is a binary heap driven directly through C ``heapq``:
``call_later``/``call_at`` end in a bare ``heappush`` and ``run()`` drains
the heap in one fused pop/fire/recycle loop.  (A pure-Python calendar-queue
timing wheel was measured against it and lost at every realistic queue
depth — see docs/PERFORMANCE.md.)

Cancelled events stay in the heap as tombstones (removing from the middle
of a heap is O(n)); the kernel keeps an O(1) tombstone counter and compacts
the whole heap in place once tombstones are at least half of it, so
timer-heavy protocols (NAK timers, heartbeats — armed by the thousand and
mostly cancelled) don't drag every subsequent push/pop through dead weight.

Hot-path design: :class:`Event` is a ``__slots__`` flyweight that serves as
its own :class:`Timer` handle (the two names alias one class), and the
kernel keeps a small free-list of fired events.  An event is recycled only
when, after its callback returns, the run loop holds the sole remaining
reference (a refcount check centralized as :data:`RECYCLE_REFS` /
:func:`live_refs`; CPython-only, disabled cleanly elsewhere) — if any
caller kept the Timer handle, the object is simply left to the allocator,
so handle state (``fired``, ``cancelled``, ``time``) stays valid forever.
"""

from __future__ import annotations

import itertools
import random
import sys
import weakref
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.obs import MetricsRegistry

#: Heap compaction triggers when at least this many tombstones have
#: accumulated *and* they make up at least half the heap.
COMPACT_MIN_TOMBSTONES = 64

#: Cap on recycled events retained for reuse; beyond this, fired events are
#: released to the allocator like any other object.
FREELIST_MAX = 512

#: Free-list recycling decides "nobody kept the Timer handle" by exact
#: refcount: after an event's callback returns, the popping loop compares
#: ``live_refs(event)`` against this constant.  Every popping loop —
#: :meth:`Simulator._drain`, :meth:`Simulator.step`, and the bounded loop in
#: :meth:`Simulator.run` — holds the event in exactly ONE local binding at
#: the check, so sole ownership is::
#:
#:     RECYCLE_REFS == 1 (the loop's `event` local) + 1 (getrefcount's arg)
#:
#: If a call site grows a second binding around the check (a temp, a
#: closure cell, a log capture), recycling silently stops matching there —
#: harmless but wasteful; if a call site *drops* its binding (e.g. firing
#: straight off a container slot), a still-held handle could match and be
#: recycled while live.  Keep every call site at the one-binding shape
#: above, or change RECYCLE_REFS in lockstep across all of them.
RECYCLE_REFS = 2

if hasattr(sys, "getrefcount") and getattr(sys, "_is_gil_enabled", lambda: True)():
    live_refs = sys.getrefcount
else:  # pragma: no cover - non-CPython / free-threaded fallback
    # PyPy has no getrefcount; free-threaded CPython's counts include
    # biased cross-thread references.  Returning a sentinel that can never
    # equal RECYCLE_REFS disables recycling cleanly: fired events simply
    # fall to the allocator, which is correct, just unrecycled.
    def live_refs(obj: object) -> int:
        return -1


def noop() -> None:
    """Placeholder callback for recycled events parked on the free-list."""


class Event:
    """A scheduled callback and its own timer handle.

    Ordered by ``(time, seq)``; ``seq`` is a global insertion counter that
    breaks ties deterministically.

    Earlier kernels paired a dataclass event with a separate ``Timer``
    handle object; at hundreds of thousands of events per second the extra
    allocation and indirection were a measurable slice of the hot path, so
    the two are now one ``__slots__`` object (``Timer`` aliases this class).
    ``_simref`` is a weak reference shared by every event of a simulator —
    a strong reference would cycle sim→heap→event→sim, and per-task
    heaps must die by refcounting (warm workers run with the cyclic GC off).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_simref")

    time: float
    seq: int
    fn: Callable[..., None]
    args: tuple
    cancelled: bool
    fired: bool
    _simref: "weakref.ref[Simulator]"

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        simref: "weakref.ref[Simulator]",
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._simref = simref

    def __lt__(self, other: "Event") -> bool:
        return self.time < other.time or (
            self.time == other.time and self.seq < other.seq
        )

    @property
    def active(self) -> bool:
        """True while the timer is pending: not cancelled and not yet fired."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent; a no-op once fired."""
        if self.cancelled or self.fired:
            return
        sim = self._simref()
        if sim is None:
            # Simulator already collected; nothing left to account against.
            self.cancelled = True
            return
        sim._cancel(self)

    def reschedule(self, delay: float) -> "Timer":
        """Cancel this timer and schedule its callback ``delay`` from now.

        Raises :class:`RuntimeError` if the timer already fired — silently
        re-running an already-executed callback is never what the caller
        meant (arm a fresh timer instead).
        """
        if self.fired:
            raise RuntimeError(
                "cannot reschedule a timer that has already fired; "
                "schedule a new one with call_later()"
            )
        sim = self._simref()
        if sim is None:
            raise RuntimeError("cannot reschedule: simulator no longer exists")
        self.cancel()
        return sim.call_later(delay, self.fn, *self.args)


#: Public alias: the scheduled event doubles as its own cancellation handle.
Timer = Event


class Simulator:
    """Deterministic discrete-event loop with virtual time.

    Example::

        sim = Simulator(seed=7)
        sim.call_later(1.5, print, "hello at t=1.5")
        sim.run()

    ``__slots__`` because ``now``/``_events_executed``/``_stopped`` are
    written or read once per event on the hot path; ``_clock_domains`` is
    an opaque per-simulator cache slot owned by :mod:`repro.ordering.dense`.
    """

    __slots__ = (
        "seed",
        "rng",
        "now",
        "_queue",
        "_tombstones",
        "_compactions",
        "_shed",
        "_seq",
        "_events_executed",
        "_stopped",
        "_freelist",
        "_selfref",
        "_clock_domains",
        "metrics",
        "__weakref__",
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.now: float = 0.0
        #: the event heap, live events and cancelled tombstones alike
        self._queue: List[Event] = []
        #: cancelled events still occupying heap slots
        self._tombstones = 0
        #: whole-heap rebuilds that shed tombstones
        self._compactions = 0
        #: tombstones physically reclaimed (popped or compacted)
        self._shed = 0
        self._seq = itertools.count()
        self._events_executed = 0
        self._stopped = False
        self._freelist: List[Event] = []
        self._selfref: "weakref.ref[Simulator]" = weakref.ref(self)
        self.metrics = MetricsRegistry("sim", clock=lambda: self.now)
        self._register_metrics()

    def _register_metrics(self) -> None:
        m = self.metrics
        m.gauge_fn("kernel.events_executed", lambda: self._events_executed)
        m.gauge_fn("kernel.pending", lambda: self.pending)
        m.gauge_fn("kernel.queue_depth", lambda: len(self._queue))
        m.gauge_fn("kernel.tombstones", lambda: self._tombstones)
        m.gauge_fn(
            "kernel.tombstone_ratio",
            lambda: self._tombstones / len(self._queue) if self._queue else 0.0,
        )
        m.gauge_fn("kernel.compactions", lambda: self._compactions)
        m.gauge_fn("kernel.tombstones_shed", lambda: self._shed)
        m.gauge_fn("kernel.virtual_time", lambda: self.now)

    # -- scheduling ---------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        This is the hot scheduling path; it inlines :meth:`call_at` (a
        non-negative delay can never land in the past, so the past-check is
        subsumed by the delay check).
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        freelist = self._freelist
        if freelist:
            # Parked events are never cancelled (only live-popped, fired
            # events are recycled), so only `fired` needs resetting.
            event = freelist.pop()
            event.time = self.now + delay
            event.seq = next(self._seq)
            event.fn = fn
            event.args = args
            event.fired = False
        else:
            event = Event(self.now + delay, next(self._seq), fn, args, self._selfref)
        heappush(self._queue, event)
        return event

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        freelist = self._freelist
        if freelist:
            event = freelist.pop()
            event.time = time
            event.seq = next(self._seq)
            event.fn = fn
            event.args = args
            event.fired = False
        else:
            event = Event(time, next(self._seq), fn, args, self._selfref)
        heappush(self._queue, event)
        return event

    # -- the heap: tombstones, compaction, pop and peek ---------------------

    def _cancel(self, event: Event) -> None:
        """Tombstone ``event``.  Caller guarantees it is live (not fired)."""
        event.cancelled = True
        self._tombstones += 1
        if (self._tombstones >= COMPACT_MIN_TOMBSTONES
                and self._tombstones * 2 >= len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and re-heapify (amortised O(1) per cancellation).

        Compaction is *in place* (slice-assign, not rebind): :meth:`_drain`
        holds the heap in a local, and a callback that mass-cancels timers
        mid-drain must not strand it on a stale list.
        """
        queue = self._queue
        kept = [e for e in queue if not e.cancelled]
        self._shed += len(queue) - len(kept)
        heapify(kept)
        queue[:] = kept
        self._tombstones = 0
        self._compactions += 1

    def _pop_next(self) -> Optional[Event]:
        """Pop the least live event, shedding tombstones encountered en route."""
        queue = self._queue
        while queue:
            event = heappop(queue)
            if event.cancelled:
                self._tombstones -= 1
                self._shed += 1
                continue
            return event
        return None

    def _peek_time(self) -> Optional[float]:
        """Time of the next live event; sheds dead heads as a side effect."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head.cancelled:
                heappop(queue)
                self._tombstones -= 1
                self._shed += 1
                continue
            return head.time
        return None

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when queue is empty."""
        event = self._pop_next()
        if event is None:
            return False
        event.fired = True
        self.now = event.time
        self._events_executed += 1
        event.fn(*event.args)
        # One-binding call shape pinned by RECYCLE_REFS.
        if len(self._freelist) < FREELIST_MAX and live_refs(event) == RECYCLE_REFS:
            event.fn = noop
            event.args = ()
            self._freelist.append(event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` passes, the event
        budget is exhausted, or :meth:`stop` is called.  Returns the final
        simulation time.

        ``until`` is inclusive: an event at exactly ``until`` executes.  The
        clock advances to ``until`` only when no live event at or before
        ``until`` remains — a run cut short by :meth:`stop` or
        ``max_events`` leaves it at the last executed event, so the next
        run never fires an event earlier than ``now``.
        """
        self._stopped = False
        if until is None and max_events is None:
            self._drain()
            return self.now
        pop_next = self._pop_next
        peek_time = self._peek_time
        freelist = self._freelist
        refs = live_refs
        executed = 0
        while not self._stopped:
            if until is not None:
                head_time = peek_time()
                if head_time is None or head_time > until:
                    break
            if max_events is not None and executed >= max_events:
                break
            event = pop_next()
            if event is None:
                break
            event.fired = True
            self.now = event.time
            self._events_executed += 1
            event.fn(*event.args)
            executed += 1
            # One-binding call shape pinned by RECYCLE_REFS.
            if len(freelist) < FREELIST_MAX and refs(event) == RECYCLE_REFS:
                event.fn = noop
                event.args = ()
                freelist.append(event)
        if until is not None and self.now < until:
            head_time = peek_time()
            if head_time is None or head_time > until:
                self.now = until
        return self.now

    def _drain(self) -> None:
        """Fused pop/fire/recycle loop behind :meth:`run` with no horizon.

        At >1M events/sec the interpreter's per-call frame setup is a
        first-order cost, so popping, firing and free-list recycling happen
        in this one frame with the heap and free-list held in locals.
        """
        queue = self._queue
        freelist = self._freelist
        park = freelist.append
        pop = heappop
        refs = live_refs
        while queue:
            if self._stopped:
                return
            event = pop(queue)
            if event.cancelled:
                self._tombstones -= 1
                self._shed += 1
                continue
            event.fired = True
            self.now = event.time
            self._events_executed += 1
            event.fn(*event.args)
            # One-binding call shape pinned by RECYCLE_REFS.
            if refs(event) == RECYCLE_REFS and len(freelist) < FREELIST_MAX:
                event.fn = noop
                event.args = ()
                park(event)

    def stop(self) -> None:
        """Halt :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def events_executed(self) -> int:
        """Total events executed so far (for cost accounting in benchmarks)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live events still queued, O(1).

        Cancelled tombstones are *excluded*: they occupy heap slots until
        popped or compacted but will never execute.  See
        :attr:`queue_depth` for the raw heap size including tombstones.
        """
        return len(self._queue) - self._tombstones

    @property
    def queue_depth(self) -> int:
        """Raw heap size, including cancelled tombstones awaiting reclaim."""
        return len(self._queue)

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying the heap."""
        return self._tombstones

    @property
    def compactions(self) -> int:
        """How many times the heap was rebuilt to shed tombstones."""
        return self._compactions

    @property
    def tombstones_shed(self) -> int:
        """Tombstones physically reclaimed so far (popped or compacted) —
        one accounting path for both :meth:`step` and :meth:`run`."""
        return self._shed
