"""The asyncio clock: the simulator's timer surface on wall-clock timers.

The protocol stacks running over it are exercised end to end in
``test_udp.py``; these tests pin the clock and timer semantics, and the
transport seam both network backends implement.
"""

import asyncio

from repro.runtime import AsyncioClock, UdpNetwork, run_for


def test_clock_and_timer_surface():
    async def scenario():
        clock = AsyncioClock(asyncio.get_running_loop(), seed=0)
        fired = []
        t1 = clock.call_later(0.01, fired.append, "a")
        t2 = clock.call_later(0.02, fired.append, "b")
        t2.cancel()
        clock.call_at(clock.now + 0.03, fired.append, "c")
        assert clock.now < 0.005
        await run_for(0.1)
        return fired, clock.now

    fired, now = asyncio.run(scenario())
    assert fired == ["a", "c"]
    assert now >= 0.1


# -- the transport seam -----------------------------------------------------------


def test_both_backends_implement_the_transport_seam():
    """One structural protocol, two substrates: the simulator network and
    the UDP socket network."""
    from repro.runtime.transport import TRANSPORT_SURFACE, Transport, missing_surface
    from repro.sim import Simulator
    from repro.sim.network import Network

    sim = Simulator(seed=0)
    sim_net = Network(sim)
    assert missing_surface(sim_net) == ()
    assert isinstance(sim_net, Transport)

    async def scenario():
        net = UdpNetwork(AsyncioClock(seed=0))
        result = (missing_surface(net), isinstance(net, Transport))
        net.close()
        return result

    missing, conforms = asyncio.run(scenario())
    assert missing == ()
    assert conforms
    assert len(TRANSPORT_SURFACE) >= 15  # the seam is the whole Network API


# -- _HandleTimer: simulator Timer surface parity ---------------------------------
# Mirrors tests/sim/test_kernel.py and test_kernel_regressions.py.


def test_timer_inactive_after_firing():
    async def scenario():
        clock = AsyncioClock(seed=0)
        timer = clock.call_later(0.01, lambda: None)
        assert timer.active
        await run_for(0.05)
        return timer

    timer = asyncio.run(scenario())
    assert timer.fired
    assert not timer.active


def test_timer_inactive_after_cancel():
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        timer = clock.call_later(0.01, hits.append, "x")
        timer.cancel()
        assert not timer.active
        timer.cancel()  # idempotent
        await run_for(0.05)
        return hits, timer

    hits, timer = asyncio.run(scenario())
    assert hits == []
    assert not timer.fired


def test_reschedule_moves_the_timer():
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        timer = clock.call_later(0.02, hits.append, "x")
        moved = timer.reschedule(0.08)
        assert not timer.active  # the original handle is dead...
        assert moved.active  # ...and the fresh one owns the callback
        await run_for(0.05)
        early = list(hits)
        await run_for(0.08)
        return early, hits

    early, hits = asyncio.run(scenario())
    assert early == []  # not at the original deadline
    assert hits == ["x"]  # exactly once, at the moved deadline


def test_reschedule_after_firing_raises_instead_of_rerunning():
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        timer = clock.call_later(0.01, hits.append, "once")
        await run_for(0.05)
        assert hits == ["once"]
        try:
            timer.reschedule(0.01)
        except RuntimeError:
            pass
        else:
            raise AssertionError("reschedule after firing must raise")
        await run_for(0.05)
        return hits

    assert asyncio.run(scenario()) == ["once"]


def test_cancel_after_firing_is_a_noop():
    async def scenario():
        clock = AsyncioClock(seed=0)
        timer = clock.call_later(0.01, lambda: None)
        await run_for(0.05)
        timer.cancel()  # must not clear .fired or resurrect .active
        return timer

    timer = asyncio.run(scenario())
    assert timer.fired
    assert not timer.active


# -- loop resolution --------------------------------------------------------------


def test_clock_uses_the_running_loop_by_default():
    async def scenario():
        clock = AsyncioClock(seed=0)  # no explicit loop, no deprecation path
        assert clock._loop is asyncio.get_running_loop()
        hits = []
        clock.call_later(0.01, hits.append, "ran")
        await run_for(0.05)
        return hits

    assert asyncio.run(scenario()) == ["ran"]


def test_clock_without_a_loop_fails_loudly():
    import pytest

    with pytest.raises(RuntimeError, match="running event loop"):
        AsyncioClock(seed=0)
