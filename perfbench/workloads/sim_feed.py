"""``sim-feed``: a trading-feed group in the simulator (paper Section 4.1).

Twelve members run the ``causal`` stack (``dedup|stability|causal``).  Two
publishers alternately multicast small tick dicts, one every 0.25 virtual
time units, 1,200 in a pass; ten subscribers never multicast, so they
acknowledge only by gossip and every member's stability buffer stays deep.  Links have latency
3, jitter 2 and 1% loss, which drives NAK repair.  Default ``ack_period``
and ``nak_delay``.

The seed picks the tick contents and seeds the simulator (loss and jitter
draws), so one seed always gives the same run.  How deep the buffers grow
depends on where the losses fall; over 1,200 ticks that work varies by 4%
(interquartile) across seeds, against 9% over 600.  The pass runs the
simulator in steps of 5 time units until the feed is over and every member
has delivered every tick.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from perfbench import probes
from perfbench.checks import check_deliveries, percentile
from perfbench.speed import Stopwatch
from perfbench.tracer import Tracer
from perfbench.workloads.common import PassResult

PUBLISHERS = ("pub0", "pub1")
SUBSCRIBERS = tuple(f"sub{i:02d}" for i in range(10))
MEMBERS = PUBLISHERS + SUBSCRIBERS
TICKS = 1200
SPACING = 0.25
START = 1.0
STEP = 5.0
MAX_DRAIN = 1000.0
SYMBOLS = ("ACME", "BOLT", "CRUX", "DYNE", "EXPO", "FLUX", "GRID", "HALO")


def make_ticks(seed: int, count: int = TICKS) -> List[Dict[str, Any]]:
    """The feed's payloads: small quote dicts drawn from ``seed``."""
    rng = random.Random(f"sim-feed/{seed}")
    return [
        {"sym": rng.choice(SYMBOLS), "px": round(rng.uniform(10.0, 500.0), 2),
         "qty": rng.randrange(1, 1000), "n": n}
        for n in range(count)
    ]


class Feed:
    """One built group, ready to run."""

    def __init__(self, seed: int, ticks: int = TICKS) -> None:
        from repro.catocs import build_group
        from repro.sim import LinkModel, Network, Simulator

        self.seed = seed
        self.ticks = ticks
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=0.01))
        #: pid -> [(msg_id, vc snapshot)], in delivery order
        self.logs: Dict[str, List[Tuple[Tuple[str, int], Dict[str, int]]]] = {
            pid: [] for pid in MEMBERS}
        #: virtual send-to-deliver time of every remote delivery
        self.latencies: List[float] = []
        self.group = build_group(self.sim, self.net, list(MEMBERS), ordering="causal",
                                 on_deliver=self._recorder)
        for k, tick in enumerate(make_ticks(seed, ticks)):
            self.sim.call_at(START + k * SPACING,
                             self.group[PUBLISHERS[k % 2]].multicast, tick)

    def _recorder(self, pid: str):
        def on_deliver(sender: str, payload: Any, msg: Any) -> None:
            self.record(pid, sender, msg)
        return on_deliver

    def record(self, pid: str, sender: str, msg: Any) -> None:
        self.logs[pid].append((msg.msg_id, dict(msg.vc.items())))
        if sender != pid:
            self.latencies.append(self.sim.now - msg.sent_at)

    def delivered(self) -> int:
        return sum(len(log) for log in self.logs.values())

    def run(self) -> None:
        """Run the feed, then drain until every tick is delivered everywhere,
        in steps of ``STEP`` time units."""
        sim = self.sim
        horizon = START + self.ticks * SPACING
        want = self.ticks * len(MEMBERS)
        while sim.now < horizon or (self.delivered() < want
                                    and sim.now < horizon + MAX_DRAIN):
            sim.run(until=sim.now + STEP)


def setup(seed: int) -> Feed:
    return Feed(seed)


def install(tracer: Tracer, tally: probes.SendTally) -> None:
    probes.install_protocol(tracer, tally)
    tracer.count(Feed, "record", "bench.record")


def run_pass(feed: Feed, tracer: Optional[Tracer] = None) -> PassResult:
    watch = Stopwatch()
    watch.start()
    try:
        feed.run()
    finally:
        watch.stop()

    expected = [(PUBLISHERS[k % 2], k // 2 + 1) for k in range(feed.ticks)]
    verdict = check_deliveries(expected, feed.logs)
    members = feed.group.values()
    dedup = [m.stack.layer("dedup") for m in members]
    stability = [m.stack.layer("stability") for m in members]
    remote = len(feed.latencies)
    lat = sorted(feed.latencies)
    stats = feed.net.stats
    retransmissions = sum(d.retransmissions for d in dedup)
    duplicates = sum(d.duplicates for d in dedup)
    arrivals = feed.delivered() - feed.ticks + duplicates  # fresh + duplicate remote copies
    layer = {
        "sim.kernel.events": feed.sim.events_executed,
        "sim.network.drops": stats.dropped,
        "catocs.deliveries": remote,
        "catocs.wire_packets_per_delivery": stats.sent / remote if remote else 0.0,
        "catocs.vt_latency_p50": percentile(lat, 50),
        "catocs.vt_latency_p99": percentile(lat, 99),
        "catocs.dedup.retransmissions": retransmissions,
        "catocs.dedup.naks_sent": sum(d.naks_sent for d in dedup),
        "catocs.dedup.duplicates": duplicates,
        "catocs.dedup.useful_frac": (arrivals - duplicates) / arrivals if arrivals else 0.0,
        "catocs.stability.peak_buffered": max(s.peak_buffered for s in stability),
        "catocs.stability.gossip_sent": sum(s.gossip_sent for s in stability),
        "catocs.ordering.peak_pending": max(m.ordering.peak_pending for m in members),
        "catocs.ordering.hold_vt": sum(m.ordering.total_hold_time() for m in members),
    }
    counters = {
        "net_sent": stats.sent,
        "retransmissions": retransmissions,
        "buffered": sum(sum(d.contiguous.values()) for d in dedup),
    }
    fingerprint = {
        "deliveries": feed.delivered(),
        "sent": stats.sent,
        "dropped": stats.dropped,
        "retransmissions": retransmissions,
        "events": feed.sim.events_executed,
        "end_vt": feed.sim.now,
        "vt_latency_sum": round(sum(feed.latencies), 9),
    }
    return PassResult(wall_s=watch.scaled_wall_s, cpu_s=watch.scaled_cpu_s,
                      raw_wall_s=watch.wall_s, raw_cpu_s=watch.cpu_s,
                      speed_factor=watch.factor(),
                      attempted=verdict.attempted,
                      failed=verdict.failed, problems=verdict.problems,
                      counters=counters, layer=layer, fingerprint=fingerprint)
