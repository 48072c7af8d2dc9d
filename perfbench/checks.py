"""Output checks: exactly-once, causally ordered delivery at every member.

A delivery log lists, per member, each delivered message as
``(msg_id, vc)``: ``msg_id = (sender, seq)`` and ``vc`` the message's vector
timestamp as ``{pid: count}``.  The vector clock counts data multicasts per
sender, so a delivery respects causal order exactly when, at that moment,
the member has already delivered ``vc[sender] - 1`` messages from the sender
and ``vc[k]`` from every other member ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

MsgId = Tuple[str, int]
Delivery = Tuple[MsgId, Mapping[str, int]]


@dataclass
class DeliveryVerdict:
    """Outcome of checking one group's delivery logs."""

    attempted: int = 0
    missing: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    unexpected: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.duplicates + self.out_of_order + self.unexpected


def check_deliveries(expected: Iterable[MsgId],
                     logs: Mapping[str, Sequence[Delivery]]) -> DeliveryVerdict:
    """Check that every member delivered every expected message exactly once,
    in causal order.

    ``attempted`` counts one check per (member, expected message); a
    delivery that is missing, repeated, causally premature or not expected
    at all counts as one failure.
    """
    wanted = set(expected)
    verdict = DeliveryVerdict()
    for pid in sorted(logs):
        verdict.attempted += len(wanted)
        seen: set = set()
        delivered: Dict[str, int] = {}
        for msg_id, vc in logs[pid]:
            sender, seq = msg_id
            if msg_id in seen:
                verdict.duplicates += 1
                verdict.problems.append(f"{pid}: {msg_id} delivered twice")
                continue
            if msg_id not in wanted:
                verdict.unexpected += 1
                verdict.problems.append(f"{pid}: {msg_id} was never sent")
                continue
            seen.add(msg_id)
            if not _covered(vc, sender, seq, delivered):
                verdict.out_of_order += 1
                verdict.problems.append(
                    f"{pid}: {msg_id} delivered before its causal predecessors "
                    f"(vc {dict(vc)}, delivered {dict(delivered)})")
            delivered[sender] = delivered.get(sender, 0) + 1
        missing = wanted - seen
        if missing:
            verdict.missing += len(missing)
            verdict.problems.append(
                f"{pid}: {len(missing)} messages never delivered, "
                f"e.g. {sorted(missing)[0]}")
    return verdict


def _covered(vc: Mapping[str, int], sender: str, seq: int,
             delivered: Mapping[str, int]) -> bool:
    if vc.get(sender, 0) != seq or delivered.get(sender, 0) != seq - 1:
        return False
    return all(
        count <= delivered.get(pid, 0)
        for pid, count in vc.items()
        if pid != sender
    )


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), int(-(-q * len(sorted_values) // 100))))
    return float(sorted_values[rank - 1])
