"""Which program functions the traced run wraps, and under which names.

Names are ``<layer>.<function>``; a layer's self time is the sum of the self
times of its names.  Spans mark the per-message boundaries (``multicast``,
``dispatch``, the network ``send`` and the ordering ``insert``); every other
probe is a count with summed times.
"""

from __future__ import annotations

import selectors
import sys
from asyncio.selector_events import _SelectorDatagramTransport
from typing import Any, Dict, Iterable, List, Optional

from perfbench.tracer import Tracer


class SendTally:
    """Counts what the wrapped network ``send`` calls carried."""

    def __init__(self) -> None:
        self.retransmissions = 0

    def id_of_send(self, args: tuple, result: Any) -> Optional[tuple]:
        payload = args[3]
        inner = getattr(payload, "payloads", None)
        for item in (inner if inner is not None else (payload,)):
            if getattr(item, "retransmit", False):
                self.retransmissions += 1
        return _msg_id(payload)


def _msg_id(payload: Any) -> Optional[tuple]:
    try:
        return payload.msg_id
    except AttributeError:
        return None


def _id_of_dispatch(args: tuple, result: Any) -> Optional[tuple]:
    return _msg_id(args[2])


def _id_of_insert(args: tuple, result: Any) -> Optional[tuple]:
    return _msg_id(args[1])


def _id_of_multicast(args: tuple, result: Any) -> Optional[tuple]:
    return result


def _repro_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if name.startswith("repro") and module is not None]


def _defining_classes(base: type) -> Iterable[type]:
    seen = [base]
    stack = [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return seen


def install_protocol(tracer: Tracer, tally: SendTally) -> None:
    """Kernel, network model, obs histograms, protocol stack, clocks."""
    import repro.catocs  # noqa: F401  (imports every ordering layer)
    from repro.catocs.member import GroupMember
    from repro.catocs.messages import DataMessage
    from repro.catocs.ordering_layers import OrderingLayer
    from repro.catocs.transport import DedupRepairLayer, StabilityLayer
    from repro.obs.metrics import Histogram
    from repro.ordering.dense import DenseVectorClock
    from repro.ordering.matrix import MatrixClock
    from repro.sim import network
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

    tracer.span(Simulator, "run", "sim.kernel.run", root=True)
    tracer.span(network.Network, "send", "sim.network.send", tally.id_of_send)
    tracer.count(network.Network, "_deliver", "sim.network.deliver")
    tracer.count_everywhere(_repro_modules(), network.estimate_size,
                            "sim.network.estimate_size", flatten=True)
    tracer.count(Histogram, "observe", "obs.histogram_observe")
    tracer.span(GroupMember, "multicast", "catocs.member.multicast", _id_of_multicast)
    tracer.span(Process, "dispatch", "catocs.member.dispatch", _id_of_dispatch)
    tracer.count(DedupRepairLayer, "receive_up", "catocs.dedup.receive_up")
    tracer.count(DedupRepairLayer, "_send_naks", "catocs.dedup.send_naks")
    tracer.count(DedupRepairLayer, "_serve_nak", "catocs.dedup.serve_nak")
    tracer.count(StabilityLayer, "buffer_message", "catocs.stability.buffer_message")
    tracer.count(StabilityLayer, "check_stability", "catocs.stability.check_stability")
    tracer.count(StabilityLayer, "_gossip_tick", "catocs.stability.gossip_tick")
    tracer.count(DataMessage, "size_bytes", "catocs.message.size_bytes")
    for cls in _defining_classes(OrderingLayer):
        if "stamp" in cls.__dict__:
            tracer.count(cls, "stamp", "catocs.ordering.stamp")
        if "insert" in cls.__dict__:
            tracer.span(cls, "insert", "catocs.ordering.insert", _id_of_insert)
        if "release_next" in cls.__dict__:
            tracer.count(cls, "release_next", "catocs.ordering.release_next")
    tracer.count(MatrixClock, "min_vector", "ordering.matrix.min_vector")
    tracer.count(DenseVectorClock, "size_bytes", "ordering.dense.size_bytes")


def install_runtime(tracer: Tracer, tally: SendTally) -> None:
    """Wire codec and the UDP transport."""
    from repro.runtime import codec
    from repro.runtime.udp import UdpNetwork

    tracer.span(UdpNetwork, "send", "runtime.udp.send", tally.id_of_send)
    # Time the event loop spends blocked waiting for a socket or a timer
    # (asyncio's selector loop uses the platform's default selector).
    tracer.count(selectors.DefaultSelector, "select", "runtime.loop.idle")
    tracer.count(UdpNetwork, "_on_datagram", "runtime.udp.receive")
    # The transport's read callback: the ``recvfrom`` call, then the
    # protocol's ``datagram_received`` (which reaches ``_on_datagram``).
    tracer.count(_SelectorDatagramTransport, "_read_ready", "runtime.udp.read_ready")
    tracer.count_everywhere(_repro_modules(), codec.encode_datagram,
                            "runtime.codec.encode")
    tracer.count_everywhere(_repro_modules(), codec.decode_datagram,
                            "runtime.codec.decode")


#: rule-id prefix -> family metric name
RULE_FAMILIES = ("PROTO", "PERF", "RACE", "FLOW", "DET", "PUR", "ORD")


def rule_family(rule_id: str) -> str:
    for family in RULE_FAMILIES:
        if rule_id.startswith(family):
            return family
    raise ValueError(f"rule {rule_id} is in no known family")


def install_analysis(tracer: Tracer) -> None:
    """Parsing, the three graph builders and each rule family's hooks."""
    import repro.analysis.engine  # noqa: F401  (binds the helpers below)
    from repro.analysis import callgraph, effects, flowgraph, source
    from repro.analysis.rules import ALL_RULES, Rule

    modules = _repro_modules()
    tracer.count_everywhere(modules, source.load_python_file, "analysis.parse")
    tracer.count_everywhere(modules, callgraph.build_code_graph, "analysis.code_graph")
    tracer.count_everywhere(modules, flowgraph.flow_graph_for, "analysis.flow_graph")
    tracer.count_everywhere(modules, effects.effect_table_for, "analysis.effects")
    # Wrap each hook on the class that defines it (never on ``Rule``, whose
    # identity ``is_file_local`` compares against).
    wrapped = set()
    for rule in ALL_RULES:
        family = rule_family(rule.rule_id)
        for cls in type(rule).__mro__:
            if cls is Rule or not issubclass(cls, Rule):
                continue
            for hook in ("check_module", "check_project"):
                if hook in cls.__dict__ and (cls, hook) not in wrapped:
                    wrapped.add((cls, hook))
                    tracer.count(cls, hook, f"analysis.rules.{family}")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures read straight off the tracer's totals."""
    by_layer = tracer.self_s_by_prefix()
    return {
        "sim.kernel.self_s": by_layer.get("sim.kernel", 0.0),
        "sim.network.sends": tracer.calls("sim.network.send"),
        "sim.network.send_self_s": tracer.self_s("sim.network.send"),
        "sim.network.self_s": by_layer.get("sim.network", 0.0),
        "sim.network.estimate_size_calls": tracer.calls("sim.network.estimate_size"),
        "sim.network.estimate_size_s": tracer.incl_s("sim.network.estimate_size"),
        "obs.histogram_observe_calls": tracer.calls("obs.histogram_observe"),
        "obs.histogram_observe_s": tracer.incl_s("obs.histogram_observe"),
        "catocs.member.multicast_s": tracer.incl_s("catocs.member.multicast"),
        "catocs.member.dispatch_s": tracer.incl_s("catocs.member.dispatch"),
        "catocs.member.self_s": by_layer.get("catocs.member", 0.0),
        "catocs.dedup.receive_up_s": tracer.incl_s("catocs.dedup.receive_up"),
        "catocs.dedup.self_s": by_layer.get("catocs.dedup", 0.0),
        "catocs.stability.buffer_message_calls":
            tracer.calls("catocs.stability.buffer_message"),
        "catocs.stability.buffer_message_s":
            tracer.incl_s("catocs.stability.buffer_message"),
        "catocs.stability.check_stability_s":
            tracer.incl_s("catocs.stability.check_stability"),
        "catocs.stability.self_s": by_layer.get("catocs.stability", 0.0),
        "catocs.message.size_bytes_calls": tracer.calls("catocs.message.size_bytes"),
        "catocs.message.size_bytes_s": tracer.incl_s("catocs.message.size_bytes"),
        "catocs.ordering.stamp_s": tracer.incl_s("catocs.ordering.stamp"),
        "catocs.ordering.insert_s": tracer.incl_s("catocs.ordering.insert"),
        "catocs.ordering.release_next_s": tracer.incl_s("catocs.ordering.release_next"),
        "catocs.ordering.self_s": by_layer.get("catocs.ordering", 0.0),
        "ordering.matrix.min_vector_s": tracer.incl_s("ordering.matrix.min_vector"),
        "ordering.dense.size_bytes_s": tracer.incl_s("ordering.dense.size_bytes"),
        "runtime.codec.encode_s": tracer.incl_s("runtime.codec.encode"),
        "runtime.codec.decode_s": tracer.incl_s("runtime.codec.decode"),
        "runtime.udp.send_self_s": tracer.self_s("runtime.udp.send"),
        "runtime.udp.self_s": by_layer.get("runtime.udp", 0.0),
        "runtime.loop.self_s": tracer.self_s("runtime.loop.run"),
        "runtime.loop.idle_s": tracer.incl_s("runtime.loop.idle"),
        "analysis.parses": tracer.calls("analysis.parse"),
        "analysis.parse_s": tracer.incl_s("analysis.parse"),
        "analysis.code_graph_s": tracer.incl_s("analysis.code_graph"),
        "analysis.flow_graph_s": tracer.incl_s("analysis.flow_graph"),
        "analysis.effects_s": tracer.incl_s("analysis.effects"),
        **{f"analysis.rules.{family}_s": tracer.incl_s(f"analysis.rules.{family}")
           for family in RULE_FAMILIES},
        "analysis.engine.self_s": by_layer.get("analysis.engine", 0.0),
        "trace.spans": tracer.span_count,
    }
