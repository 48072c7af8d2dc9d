"""CATOCS: causally and totally ordered communication support.

This package implements the system the paper critiques, at the fidelity of
the protocols it cites ([4] Birman, Schiper & Stephenson 1991): reliable
group multicast with FIFO, causal (vector clock), and total (fixed-sequencer
and ISIS agreed-order) delivery disciplines; atomic-delivery buffering with
matrix-clock stability tracking; heartbeat failure detection; and
view-synchronous membership with flush.

Every member runs a composable protocol stack (:mod:`repro.catocs.stack`):
``ordering`` accepts a discipline alias (``"causal"``) or a full spec such
as ``"dedup|batch|stability|causal"``.  See ``docs/ARCHITECTURE.md``.

Quick start::

    from repro.catocs import build_group
    from repro.sim import Simulator, Network, LinkModel

    sim = Simulator(seed=1)
    net = Network(sim, LinkModel(latency=5, jitter=3))
    members = build_group(sim, net, ["p", "q", "r"], ordering="causal",
                          on_deliver=lambda pid: lambda s, m, _: print(pid, m))
    members["q"].multicast("m1")
    sim.run()
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.catocs.failure_detector import HeartbeatDetector
from repro.catocs.hybrid import HybridCausalOrdering
from repro.catocs.member import (
    DeliveryRecord,
    GroupInstrumentation,
    GroupMember,
)
from repro.catocs.membership import ViewChangeRecord, ViewManager
from repro.catocs.messages import DataMessage, MsgId
from repro.catocs.ordering_layers import (
    ORDERINGS,
    CausalOrdering,
    FifoOrdering,
    OrderingLayer,
    RawOrdering,
    TotalAgreedOrdering,
    TotalSequencerOrdering,
    make_ordering,
)
from repro.catocs.stack import (
    DISCIPLINES,
    BatchLayer,
    ProtocolLayer,
    ProtocolStack,
    build_stack,
    discipline_override,
    register_layer,
    resolve_spec,
    set_discipline_override,
)
from repro.catocs.transport import DedupRepairLayer, StabilityLayer
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.trace import EventTrace

__all__ = [
    "DataMessage",
    "MsgId",
    "DeliveryRecord",
    "GroupInstrumentation",
    "GroupMember",
    "HeartbeatDetector",
    "ViewManager",
    "ViewChangeRecord",
    "OrderingLayer",
    "RawOrdering",
    "FifoOrdering",
    "CausalOrdering",
    "HybridCausalOrdering",
    "TotalSequencerOrdering",
    "TotalAgreedOrdering",
    "ORDERINGS",
    "make_ordering",
    "ProtocolLayer",
    "ProtocolStack",
    "BatchLayer",
    "DedupRepairLayer",
    "StabilityLayer",
    "DISCIPLINES",
    "register_layer",
    "resolve_spec",
    "build_stack",
    "set_discipline_override",
    "discipline_override",
    "build_group",
    "build_member",
]


def build_member(
    sim: Simulator,
    network: Network,
    pid: str,
    group: str,
    members: Sequence[str],
    ordering: str = "causal",
    on_deliver: Optional[Callable] = None,
    with_membership: bool = False,
    instrumentation: Optional[GroupInstrumentation] = None,
    trace: Optional[EventTrace] = None,
    nak_delay: float = 5.0,
    ack_period: float = 20.0,
    heartbeat_period: float = 10.0,
    heartbeat_timeout: float = 35.0,
    piggyback_causal: bool = False,
    stack: Optional[str] = None,
) -> GroupMember:
    """Construct one group member through the shared stack factory.

    The single construction path every app, experiment, and ``build_group``
    goes through — so the ``--discipline`` override and stack specs apply
    uniformly.  ``on_deliver`` here is the member's callback itself (not a
    factory; see :func:`build_group` for the whole-group form).
    """
    member = GroupMember(
        sim,
        network,
        pid,
        group=group,
        members=members,
        ordering=ordering,
        on_deliver=on_deliver,
        nak_delay=nak_delay,
        ack_period=ack_period,
        instrumentation=instrumentation,
        trace=trace,
        piggyback_causal=piggyback_causal,
        stack=stack,
    )
    if with_membership:
        detector = HeartbeatDetector(
            member, period=heartbeat_period, timeout=heartbeat_timeout
        )
        ViewManager(member, detector)
    return member


def build_group(
    sim: Simulator,
    network: Network,
    pids: Sequence[str],
    group: str = "group",
    ordering: str = "causal",
    on_deliver: Optional[Callable[[str], Callable]] = None,
    with_membership: bool = False,
    instrumentation: Optional[GroupInstrumentation] = None,
    trace: Optional[EventTrace] = None,
    nak_delay: float = 5.0,
    ack_period: float = 20.0,
    heartbeat_period: float = 10.0,
    heartbeat_timeout: float = 35.0,
    piggyback_causal: bool = False,
    stack: Optional[str] = None,
) -> Dict[str, GroupMember]:
    """Construct every member of one process group.

    ``on_deliver`` is a factory: called with each pid, it returns that
    member's delivery callback (or None).  With ``with_membership`` each
    member also gets a heartbeat detector and view manager so the group
    survives crashes via view changes.
    """
    members: Dict[str, GroupMember] = {}
    for pid in pids:
        callback = on_deliver(pid) if on_deliver is not None else None
        members[pid] = build_member(
            sim,
            network,
            pid,
            group=group,
            members=pids,
            ordering=ordering,
            on_deliver=callback,
            with_membership=with_membership,
            instrumentation=instrumentation,
            trace=trace,
            nak_delay=nak_delay,
            ack_period=ack_period,
            heartbeat_period=heartbeat_period,
            heartbeat_timeout=heartbeat_timeout,
            piggyback_causal=piggyback_causal,
            stack=stack,
        )
    return members
