"""``udp-peers``: three causal members over real UDP loopback sockets.

All three members live in this process on one asyncio thread, each with
its own connectionless socket.  They multicast in turn on an open-loop
schedule of 250 msgs/s in total: message ``k`` is due ``k / 250`` seconds
after the start whether or not earlier ones have been delivered.  No
latency and no loss are injected.  250 msgs/s is half the lowest rate seen
to collapse: at 500 msgs/s the socket path delivered everything when the
host was fast and lost messages in NAK repair storms when it was slow.
``nak_delay`` and ``ack_period`` are set in seconds (0.05 and 0.5), the
values the runtime uses on loopback.

Latency is measured from when each message was *due* to be sent to its
delivery at each other member, so a generator stall counts against the
messages queued behind it.  The seed picks the payloads, the link model's
random draws and which member sends first.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, List, Optional, Tuple

from perfbench import probes
from perfbench.checks import check_deliveries, percentile
from perfbench.speed import Stopwatch
from perfbench.tracer import Tracer
from perfbench.workloads.common import PassResult

MEMBERS = ("a", "b", "c")
RATE = 250.0
MESSAGES = 625
DRAIN_LIMIT_S = 10.0
NAK_DELAY = 0.05
ACK_PERIOD = 0.5
#: Seconds between quick speed samples, and the free time before the next
#: due send that one needs.
QUICK_EVERY_S = 0.1
QUICK_ROOM_S = 0.0015
#: Set-ups timed before the pass.  One takes ~2 ms, most of it system calls,
#: whose speed the reference loop follows less closely; the median of many
#: holds steadier.
SETUP_SAMPLES = 60


def make_payloads(seed: int) -> List[Dict[str, Any]]:
    rng = random.Random(f"udp-peers/{seed}")
    return [{"k": k, "px": round(rng.uniform(10.0, 500.0), 2),
             "qty": rng.randrange(1, 1000)} for k in range(MESSAGES)]


class Peers:
    """One group of three members with bound sockets."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.payloads = make_payloads(seed)
        self.first = random.Random(f"udp-peers/first/{seed}").randrange(len(MEMBERS))
        self.logs: Dict[str, List[Tuple[Tuple[str, int], Dict[str, int]]]] = {
            pid: [] for pid in MEMBERS}
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.t0 = 0.0
        self.loop: asyncio.AbstractEventLoop = None  # type: ignore[assignment]

    async def start(self) -> None:
        from repro.catocs import build_group
        from repro.runtime import AsyncioClock, UdpNetwork
        from repro.sim.network import LinkModel

        self.loop = asyncio.get_running_loop()
        self.clock = AsyncioClock(seed=self.seed)
        self.net = UdpNetwork(self.clock, LinkModel(latency=0.0))
        self.group = build_group(self.clock, self.net, list(MEMBERS), ordering="causal",
                                 on_deliver=self._recorder,
                                 nak_delay=NAK_DELAY, ack_period=ACK_PERIOD)
        await self.net.start()

    def sender(self, k: int) -> str:
        return MEMBERS[(self.first + k) % len(MEMBERS)]

    def _recorder(self, pid: str):
        def on_deliver(sender: str, payload: Any, msg: Any) -> None:
            self.record(pid, sender, payload, msg)
        return on_deliver

    def record(self, pid: str, sender: str, payload: Any, msg: Any) -> None:
        self.logs[pid].append((msg.msg_id, dict(msg.vc.items())))
        if sender != pid:
            due = self.t0 + payload["k"] / RATE
            self.latencies.append(self.loop.time() - due)

    def delivered(self) -> int:
        return sum(len(log) for log in self.logs.values())

    async def run(self, watch: Stopwatch) -> None:
        loop = self.loop
        self.t0 = loop.time() + 0.005
        group = self.group
        sampled = loop.time()
        for k, payload in enumerate(self.payloads):
            due = self.t0 + k / RATE
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(loop.time() - due)
            group[self.sender(k)].multicast(payload)
            # Track the host's speed through the pass with quick samples,
            # taken only where the schedule leaves room for them.
            now = loop.time()
            if now - sampled >= QUICK_EVERY_S and due + 1.0 / RATE - now > QUICK_ROOM_S:
                watch.quick_sample()
                sampled = loop.time()
        want = MESSAGES * len(MEMBERS)
        deadline = loop.time() + DRAIN_LIMIT_S
        while self.delivered() < want and loop.time() < deadline:
            await asyncio.sleep(0.001)

    def close(self) -> None:
        self.net.close()


def setup(seed: int) -> Peers:
    """Build the group and bind its sockets on a fresh event loop."""
    peers = Peers(seed)
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(peers.start())
    except BaseException:
        loop.close()
        raise
    return peers


def teardown(peers: Peers) -> None:
    """Close the sockets and the event loop (once)."""
    loop = peers.loop
    if loop.is_closed():
        return
    peers.close()
    loop.run_until_complete(asyncio.sleep(0))  # let the transports finish closing
    loop.close()


def install(tracer: Tracer, tally: probes.SendTally) -> None:
    probes.install_protocol(tracer, tally)
    probes.install_runtime(tracer, tally)
    tracer.count(Peers, "record", "bench.record")


def run_pass(peers: Peers, tracer: Optional[Tracer] = None) -> PassResult:
    # A timer-driven sample would stall the schedule; the generator takes
    # quick samples in its free time instead.
    watch = Stopwatch(sample_every=None)
    try:
        watch.start()
        if tracer is None:
            peers.loop.run_until_complete(peers.run(watch))
        else:
            tracer.call("runtime.loop.run", peers.loop.run_until_complete, peers.run(watch))
        watch.stop()
    finally:
        teardown(peers)
    wall, cpu = watch.wall_s, watch.cpu_s

    senders: Dict[str, int] = {}
    expected = []
    for k in range(MESSAGES):
        pid = peers.sender(k)
        senders[pid] = senders.get(pid, 0) + 1
        expected.append((pid, senders[pid]))
    verdict = check_deliveries(expected, peers.logs)
    members = peers.group.values()
    dedup = [m.stack.layer("dedup") for m in members]
    stability = [m.stack.layer("stability") for m in members]
    stats = peers.net.stats
    remote = len(peers.latencies)
    lat_ms = sorted(x * 1000.0 for x in peers.latencies)
    late_ms = sorted(x * 1000.0 for x in peers.late)
    retransmissions = sum(d.retransmissions for d in dedup)
    duplicates = sum(d.duplicates for d in dedup)
    arrivals = peers.delivered() - MESSAGES + duplicates
    layer = {
        "catocs.deliveries": remote,
        "catocs.wire_packets_per_delivery": stats.sent / remote if remote else 0.0,
        "catocs.dedup.retransmissions": retransmissions,
        "catocs.dedup.naks_sent": sum(d.naks_sent for d in dedup),
        "catocs.dedup.duplicates": duplicates,
        "catocs.dedup.useful_frac": (arrivals - duplicates) / arrivals if arrivals else 0.0,
        "catocs.stability.peak_buffered": max(s.peak_buffered for s in stability),
        "catocs.stability.gossip_sent": sum(s.gossip_sent for s in stability),
        "catocs.ordering.peak_pending": max(m.ordering.peak_pending for m in members),
        "runtime.codec.bytes_per_datagram": stats.bytes_sent / stats.sent if stats.sent else 0.0,
        "runtime.udp.datagrams_sent": stats.sent,
        "runtime.udp.dropped": stats.dropped,
        "runtime.udp.decode_errors": peers.net.decode_errors,
        "runtime.loop.generator_late_p99_ms": percentile(late_ms, 99),
        "runtime.loop.busy_frac": cpu / wall if wall else 0.0,
        "runtime.latency_p50_ms": percentile(lat_ms, 50),
        "runtime.latency_p99_ms": percentile(lat_ms, 99),
        "runtime.cpu_us_per_delivery": watch.scaled_cpu_s / remote * 1e6 if remote else 0.0,
    }
    counters = {
        "net_sent": stats.sent,
        "retransmissions": retransmissions,
        "buffered": sum(sum(d.contiguous.values()) for d in dedup),
    }
    fingerprint = {"deliveries": peers.delivered(), "sent": stats.sent}
    # The pass runs on a real-time schedule: wall time stays raw, CPU time
    # is speed-scaled.
    return PassResult(wall_s=wall, cpu_s=watch.scaled_cpu_s, raw_wall_s=wall,
                      raw_cpu_s=cpu, speed_factor=watch.factor(),
                      attempted=verdict.attempted,
                      failed=verdict.failed, problems=verdict.problems,
                      counters=counters, layer=layer, fingerprint=fingerprint)
