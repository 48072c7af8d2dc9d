"""``experiment-suite``: E01-E19, one after another, in this process.

Each experiment runs through :func:`repro.experiments.run_all.run_one`, the
path ``python -m repro.experiments`` takes, at its default seed; the
``--seed`` argument does not change the suite.  The output check is every
experiment's shape checks.  The pass also renders the seed report exactly
as the command prints it and reports its sha256 (for information only: it
shows when a change altered the report).
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from typing import Any, Dict, List, Optional

from perfbench import probes
from perfbench.speed import Stopwatch
from perfbench.tracer import Tracer
from perfbench.workloads.common import PassResult


#: The traced run skips the untraced reference pass: a second pass of the
#: whole suite would not fit the benchmark's 180 s per-run limit on a slow
#: host.  Per-experiment seconds in a traced run are therefore traced
#: seconds, and the run reports no tracing overhead of its own.
REFERENCE_PASS = False
#: The set-up is imports, which happen once per process: each set-up is
#: timed in a fresh interpreter (~0.4 s each, with its start-up).
SETUP_IN_FRESH_INTERPRETER = True
SETUP_SAMPLES = 20


class Suite:
    def __init__(self, names: List[str]) -> None:
        self.names = names
        self.report_sha256 = ""
        #: speed-scaled wall seconds of each experiment in the last pass
        self.seconds: Dict[str, float] = {}


def _program_counters(registries: List[Any]) -> Dict[str, float]:
    """Sum the network send and retransmission gauges of ``registries``.

    Only those two gauges are read: a full ``snapshot()`` would evaluate
    every gauge, and some (buffered bytes) call traced functions.
    """
    sent = retransmissions = 0
    for registry in registries:
        for gauge in registry._gauges.values():
            if gauge.name == "net.sent":
                sent += gauge.value
            elif gauge.name == "stack.dedup.retransmissions":
                retransmissions += gauge.value
    return {"net_sent": sent, "retransmissions": retransmissions}


def setup(seed: int) -> Suite:
    """Import the experiment registry (every experiment module)."""
    from repro.experiments.run_all import registry

    return Suite(list(registry()))


def render_report(envelopes: List[Dict[str, Any]]) -> str:
    """The text ``python -m repro.experiments`` prints for these envelopes."""
    from repro.experiments import run_all

    out = io.StringIO()
    with redirect_stdout(out):
        run_all._print_report(envelopes)
        run_all._print_verdicts(envelopes)
    failed = [e["name"] for e in envelopes if e["verdict"] != run_all.PASS]
    status = "ALL PASSED" if not failed else "FAILED: " + ", ".join(failed)
    out.write(f"ran {len(envelopes)} experiments; {status}\n")
    return out.getvalue()


def count_checks(rendered: str) -> int:
    return sum(1 for line in rendered.splitlines()
               if line.startswith(("[PASS] ", "[FAIL] ")))


def install(tracer: Tracer, tally: probes.SendTally) -> None:
    probes.install_protocol(tracer, tally)


def run_pass(suite: Suite, tracer: Optional[Tracer] = None) -> PassResult:
    from repro.experiments.run_all import CRASH, run_one
    from repro.obs import capture

    envelopes = []
    counters = {"net_sent": 0.0, "retransmissions": 0.0}
    watch = Stopwatch()
    watch.start()
    try:
        for name in suite.names:
            before = watch.scaled_wall_s
            if tracer is not None:
                # Holding the registries keeps the experiment's objects alive
                # until it ends, so only the traced pass collects them.
                with capture() as registries:
                    envelopes.append(
                        tracer.call(f"experiments.{name}", run_one, name, False))
                for key, value in _program_counters(registries).items():
                    counters[key] += value
                del registries
            else:
                envelopes.append(run_one(name, want_metrics=False))
            watch.lap()
            suite.seconds[name] = watch.scaled_wall_s - before
    finally:
        watch.stop()

    attempted = failed = 0
    problems = []
    for envelope in envelopes:
        if envelope["verdict"] == CRASH:
            attempted += 1
            failed += 1
            problems.append(f"{envelope['name']} crashed: "
                            f"{envelope['traceback'].strip().splitlines()[-1]}")
            continue
        attempted += count_checks(envelope["rendered"])
        failed += len(envelope["failed_checks"])
        problems.extend(f"{envelope['name']}: {check}"
                        for check in envelope["failed_checks"])
    report = render_report(envelopes)
    suite.report_sha256 = hashlib.sha256(report.encode("utf-8")).hexdigest()
    layer: Dict[str, float] = {f"experiments.{name}_s": secs
                               for name, secs in suite.seconds.items()}
    layer["experiments.checks_failed"] = failed
    return PassResult(wall_s=watch.scaled_wall_s, cpu_s=watch.scaled_cpu_s,
                      raw_wall_s=watch.wall_s, raw_cpu_s=watch.cpu_s,
                      speed_factor=watch.factor(),
                      attempted=attempted, failed=failed,
                      problems=problems, layer=layer,
                      counters=counters if tracer is not None else {},
                      fingerprint={"report_sha256": suite.report_sha256})
