"""What every workload's measured pass returns, and where runs write."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

#: Where runs write (span files, the extracted pinned tree): ``.perfbench/``
#: at the root of the checkout, never outside it.
OUT_DIR = Path(__file__).resolve().parents[2] / ".perfbench"


@dataclass
class PassResult:
    """One measured pass of a workload.

    ``wall_s`` and ``cpu_s`` are speed-scaled (see :mod:`perfbench.speed`)
    unless the workload runs on a real-time schedule, where wall time is
    kept raw; ``raw_wall_s`` and ``raw_cpu_s`` are as read off the clocks.

    ``counters`` are the program's own counters read after the pass (the
    tracer self-check compares traced call counts against them);
    ``layer`` holds per-layer figures that need no tracing (counts, virtual
    times, socket latencies); ``fingerprint`` summarises the outputs so two
    runs with the same seed can be compared.
    """

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float
    #: speed factor (see :mod:`perfbench.speed`) averaged over the pass
    speed_factor: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
