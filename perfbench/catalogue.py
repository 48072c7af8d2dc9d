"""The benchmark's workloads and metric names and units, read from
``BENCHMARK.json`` at the repository root, the one place they are declared."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))

WORKLOADS: List[str] = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END_NAMES: List[str] = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER_NAMES: List[str] = [metric["name"] for metric in SPEC["per_layer"]]
UNITS: Dict[str, str] = {metric["name"]: metric["unit"]
                         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

#: The first part of the names the benchmark's own callbacks are traced
#: under; their time counts toward no program layer.
BENCH_LAYER = "bench"
