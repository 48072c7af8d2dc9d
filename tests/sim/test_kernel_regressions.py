"""Regression tests for the timer/pending kernel fixes.

Each test here failed against the seed kernel:

- ``Timer.active`` stayed True after the event fired (the old check was
  ``event.time >= sim.now``, which holds at the firing instant and forever
  after when the timer fired at the end of a run).
- ``Timer.reschedule`` on a fired timer silently re-armed the callback.
- ``Simulator.pending`` claimed to include cancelled tombstones but didn't,
  and cost O(queue) per call.
- ``Simulator.run(until=...)`` set ``now = until`` even when ``stop()`` or
  ``max_events`` cut the run short, so the next run fired a still-pending
  event with the clock moving backwards.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


def test_timer_inactive_after_firing():
    sim = Simulator()
    hits = []
    timer = sim.call_later(5.0, hits.append, "x")
    assert timer.active
    sim.run()
    assert hits == ["x"]
    # Seed bug: event.time >= sim.now held at the firing instant, so this
    # stayed True forever.
    assert not timer.active
    assert timer.fired


def test_timer_active_is_false_inside_own_callback():
    sim = Simulator()
    seen = []
    holder = {}

    def cb():
        seen.append(holder["t"].active)

    holder["t"] = sim.call_later(1.0, cb)
    sim.run()
    assert seen == [False]


def test_reschedule_after_firing_raises_instead_of_rerunning():
    sim = Simulator()
    hits = []
    timer = sim.call_later(1.0, hits.append, "once")
    sim.run()
    assert hits == ["once"]
    with pytest.raises(RuntimeError):
        timer.reschedule(5.0)
    sim.run()
    # Seed bug: the callback ran a second time at t=6.
    assert hits == ["once"]


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    timer = sim.call_later(1.0, lambda: None)
    sim.run()
    timer.cancel()  # must not corrupt live/tombstone accounting
    assert sim.pending == 0
    assert sim.tombstones == 0


def test_pending_excludes_tombstones_and_queue_depth_includes_them():
    sim = Simulator()
    timers = [sim.call_later(float(i + 1), lambda: None) for i in range(10)]
    for timer in timers[:4]:
        timer.cancel()
    assert sim.pending == 6
    # Tombstones still occupy heap slots until popped or compacted.
    assert sim.queue_depth == sim.pending + sim.tombstones


def test_tombstone_compaction_bounds_queue_growth():
    sim = Simulator()
    # Arm and cancel many timers against a far-future horizon, as NAK/ack
    # timers do.  Without compaction the heap would hold every tombstone.
    for _ in range(50):
        timers = [sim.call_later(1000.0, lambda: None) for _ in range(100)]
        for timer in timers:
            timer.cancel()
    assert sim.pending == 0
    assert sim.compactions > 0
    assert sim.queue_depth < 200  # 5000 cancellations didn't pile up


def test_run_until_ignores_tombstones_at_the_head():
    sim = Simulator()
    hits = []
    early = sim.call_later(1.0, hits.append, "cancelled")
    sim.call_later(10.0, hits.append, "late")
    early.cancel()
    # The head tombstone at t=1 must not trick run() into executing the
    # t=10 event against an until=5 horizon.
    sim.run(until=5.0)
    assert hits == []
    assert sim.now == 5.0
    sim.run()
    assert hits == ["late"]


def test_stop_inside_bounded_run_does_not_jump_the_clock():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, sim.stop)
    sim.call_at(5.0, lambda: fired.append(sim.now))
    sim.run(until=10.0)
    # Bug: now == 10.0 with the t=5 event still pending.
    assert sim.now == 1.0
    assert sim.pending == 1
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_max_events_inside_bounded_run_does_not_jump_the_clock():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, 1.0)
    sim.call_at(5.0, lambda: fired.append(sim.now))
    sim.run(until=10.0, max_events=1)
    assert sim.now == 1.0
    assert sim.pending == 1
    sim.run()
    assert fired == [1.0, 5.0]
    assert sim.now == 5.0


def test_bounded_run_cut_short_still_advances_past_a_later_event():
    # The budget runs out, but the only event left lies beyond the horizon:
    # nothing at or before `until` remains, so the clock does advance.
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    sim.call_at(20.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0
    assert sim.pending == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["sched", "cancel", "step", "burst"]), max_size=80))
def test_pending_plus_executed_is_conserved(ops):
    """Every scheduled event is exactly one of: executed, cancelled, pending.

    The invariant is checked after *every* operation, so any drift in the
    O(1) live-counter bookkeeping (schedule, cancel, fire, compaction,
    tombstone pops) shows up immediately.
    """
    sim = Simulator()
    fired = []
    timers = []
    scheduled = 0
    cancelled = 0
    for op in ops:
        if op == "sched":
            timers.append(sim.call_later(float(len(timers) % 7), fired.append, None))
            scheduled += 1
        elif op == "cancel" and timers:
            timer = timers.pop(0)
            if timer.active:
                timer.cancel()
                cancelled += 1
        elif op == "step":
            sim.step()
        elif op == "burst":
            sim.run(max_events=3)
        assert sim.pending + len(fired) + cancelled == scheduled
        assert sim.queue_depth == sim.pending + sim.tombstones
    sim.run()
    assert sim.pending == 0
    assert len(fired) + cancelled == scheduled
    assert sim.events_executed == len(fired)
