"""The benchmark's workloads, by name.

Each workload module exposes ``setup(seed)`` (build what one measured pass
needs, timed as set-up) and ``run_pass(state, probe)`` (run it and return
a :class:`perfbench.workloads.common.PassResult`).
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict


def load(name: str) -> ModuleType:
    """Import the module for workload ``name`` (imports are deferred so a
    process that runs one workload imports only that workload's layers)."""
    from importlib import import_module

    modules: Dict[str, str] = {
        "sim-feed": "perfbench.workloads.sim_feed",
        "udp-peers": "perfbench.workloads.udp_peers",
        "experiment-suite": "perfbench.workloads.experiment_suite",
        "analysis-cold": "perfbench.workloads.analysis_cold",
    }
    return import_module(modules[name])
