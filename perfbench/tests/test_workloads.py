"""Seed determinism of sim-feed and the traced run's self-check, on a small feed."""

from perfbench import harness, probes
from perfbench.tracer import Tracer
from perfbench.workloads import sim_feed

TICKS = 80


def small_pass(seed, tracer=None):
    return sim_feed.run_pass(sim_feed.Feed(seed, ticks=TICKS), tracer)


def test_same_seed_same_outputs():
    first, second = small_pass(3), small_pass(3)
    assert first.failed == 0 and second.failed == 0
    assert first.attempted == TICKS * len(sim_feed.MEMBERS)
    assert first.fingerprint == second.fingerprint
    assert first.layer == second.layer


def test_other_seed_other_outputs():
    assert small_pass(3).fingerprint != small_pass(4).fingerprint


def test_tracing_matches_program_counters_and_changes_nothing():
    from repro.sim.network import Network

    original_send = Network.__dict__["send"]
    untraced = small_pass(5)
    tracer, tally = Tracer(), probes.SendTally()
    try:
        sim_feed.install(tracer, tally)
        assert Network.__dict__["send"] is not original_send
        traced = small_pass(5, tracer)
    finally:
        assert tracer.restore()
    assert Network.__dict__["send"] is original_send
    assert traced.fingerprint == untraced.fingerprint
    assert harness.self_check(tracer, tally, traced.counters) == []
    assert tracer.calls("catocs.member.multicast") == TICKS
    assert tally.retransmissions == traced.counters["retransmissions"] > 0
    assert tracer.span_count > 0


def test_a_pass_leaves_no_timer_armed():
    import signal

    small_pass(6)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
