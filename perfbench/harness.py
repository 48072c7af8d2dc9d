"""Measure one workload (untraced or traced), or drive every workload."""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import catalogue, probes, speed, workloads
from perfbench.tracer import Tracer
from perfbench.workloads.common import OUT_DIR, PassResult

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups timed before the first pass (unless the workload sets its own
#: ``SETUP_SAMPLES``); each later pass adds one more.
SETUP_SAMPLES = 25
#: Workloads whose passes must repeat exactly for one seed.
DETERMINISTIC = {"sim-feed", "experiment-suite", "analysis-cold"}
#: Tracer-derived seconds that are real time, not work, so never scaled.
REAL_TIME = {"runtime.loop.idle_s"}


def _discard(module: Any, state: Any) -> None:
    teardown = getattr(module, "teardown", None)
    if teardown is not None:
        teardown(state)


#: Run by a fresh interpreter: time one set-up of workload ``argv[1]`` with
#: seed ``argv[2]`` on a stopwatch and print the scaled seconds.
_FRESH_SETUP = (
    "import sys\n"
    "from perfbench import speed, workloads\n"
    "module = workloads.load(sys.argv[1])\n"
    "watch = speed.Stopwatch(sample_every=None)\n"
    "watch.start()\n"
    "module.setup(int(sys.argv[2]))\n"
    "watch.stop()\n"
    "print(watch.scaled_wall_s)\n"
)


def _fresh_setup_seconds(name: str, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", _FRESH_SETUP, name, str(seed)], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _time_setups(name: str, module: Any, seed: int, samples: int,
                 times: List[float]) -> Any:
    """Set up ``samples`` times and keep the last state.

    Each set-up is timed on its own stopwatch, so it is speed-scaled by
    reference samples taken just before and just after it; tearing the
    previous state down is not timed.  A workload whose set-up is mostly
    imports, which happen once per process, has each set-up timed in a
    fresh interpreter instead, and then sets up once here, untimed.
    """
    if getattr(module, "SETUP_IN_FRESH_INTERPRETER", False):
        times.extend(_fresh_setup_seconds(name, seed) for _ in range(samples))
        return module.setup(seed)
    state = None
    for _ in range(samples):
        if state is not None:
            _discard(module, state)
            state = None
            gc.collect()
        watch = speed.Stopwatch(sample_every=None)
        watch.start()
        state = module.setup(seed)
        watch.stop()
        times.append(watch.scaled_wall_s)
    return state


def _fingerprint_problems(name: str, passes: List[PassResult]) -> List[str]:
    if name not in DETERMINISTIC:
        return []
    first = passes[0].fingerprint
    return [f"pass {i} differs from pass 0 for the same seed: {p.fingerprint} != {first}"
            for i, p in enumerate(passes[1:], 1) if p.fingerprint != first]


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: passes until ``seconds`` of measured time have elapsed."""
    module = workloads.load(name)
    setups: List[float] = []
    state = _time_setups(name, module, seed,
                         getattr(module, "SETUP_SAMPLES", SETUP_SAMPLES), setups)
    passes: List[PassResult] = []
    measured = 0.0
    while True:
        result = module.run_pass(state)
        # Tear the finished pass down (untimed) and free it before the next
        # set-up; its objects form cycles, so only a collection returns
        # them, and without it the peak memory would depend on how many
        # passes fit in the run.
        _discard(module, state)
        state = None
        gc.collect()
        passes.append(result)
        measured += result.raw_wall_s
        if measured >= seconds:
            break
        state = _time_setups(name, module, seed, 1, setups)
    problems = [p for result in passes for p in result.problems]
    determinism = _fingerprint_problems(name, passes)
    attempted = sum(r.attempted for r in passes)
    if name in DETERMINISTIC:
        attempted += len(passes) - 1
    failed = sum(r.failed for r in passes) + len(determinism)
    values = {
        "wall_s": statistics.median(r.wall_s for r in passes),
        "cpu_s": statistics.median(r.cpu_s for r in passes),
        "passed_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    info = {"passes": len(passes), "setups": len(setups),
            "raw_wall_s": [round(r.raw_wall_s, 4) for r in passes],
            "raw_cpu_s": [round(r.raw_cpu_s, 4) for r in passes]}
    info.update({k: v for k, v in passes[0].fingerprint.items() if k == "report_sha256"})
    return _result(name, values, catalogue.END_TO_END_NAMES, attempted, failed,
                   problems + determinism, info)


def self_check(tracer: Tracer, tally: probes.SendTally,
               counters: Dict[str, float]) -> List[str]:
    """Compare traced call counts with the program's own counters."""
    problems = []
    if "net_sent" in counters:
        sends = tracer.calls("sim.network.send") + tracer.calls("runtime.udp.send")
        if sends != counters["net_sent"]:
            problems.append(f"traced network sends {sends} != program's {counters['net_sent']}")
    if "retransmissions" in counters and tally.retransmissions != counters["retransmissions"]:
        problems.append(f"traced retransmissions {tally.retransmissions} != "
                        f"program's {counters['retransmissions']}")
    if "buffered" in counters:
        buffered = tracer.calls("catocs.stability.buffer_message")
        if buffered != counters["buffered"]:
            problems.append(f"traced buffer_message calls {buffered} != "
                            f"data messages buffered {counters['buffered']}")
    return problems


def coverage(tracer: Tracer, wall_s: float) -> float:
    """Share of the busy time of a traced pass that the named probes cover.

    Roots (``Simulator.run``, the paced phase, one analysis, one experiment)
    are left out: their self time is whatever no probe below them names.
    So is the benchmark's own time, in the numerator only.  Time the event
    loop spends blocked in ``select`` is idle, not work, and leaves both.
    """
    idle = tracer.self_s("runtime.loop.idle")
    named = tracer.attributed_s(skip_layers=(catalogue.BENCH_LAYER,)) - idle
    return named / (wall_s - idle)


def measure_traced(name: str, seed: int) -> Dict[str, Any]:
    """Traced run: an untraced reference pass (where it fits), then one
    traced pass.

    Figures the program or the workload measures itself (counts, virtual
    times, socket latencies) come from the reference pass when there is
    one; everything read off the tracer comes from the traced pass.  The
    wrappers are installed before the traced pass's set-up, so callbacks
    bound during set-up are traced too.
    """
    module = workloads.load(name)
    reference = None
    if getattr(module, "REFERENCE_PASS", True):
        state = module.setup(seed)
        reference = module.run_pass(state)
        _discard(module, state)
        del state
    tracer = Tracer()
    tally = probes.SendTally()
    try:
        module.install(tracer, tally)
        installed = tracer.installed
        # A speed sample can fire inside any traced call; its time is the
        # benchmark's own and is taken out of every call open around it.
        tracer.exclude(speed.Stopwatch, "lap", "bench.speed_sample")
        tracer.exclude(speed.Stopwatch, "quick_sample", "bench.speed_sample")
        state = module.setup(seed)
        traced = module.run_pass(state, tracer)
    finally:
        restored = tracer.restore()
    _discard(module, state)

    checks = self_check(tracer, tally, traced.counters)
    if not restored:
        checks.append("a wrapped attribute is not the original object after restore")
    passes = [traced] if reference is None else [reference, traced]
    checks += _fingerprint_problems(name, passes)
    n_checks = 1 + len(traced.counters) + (len(passes) - 1 if name in DETERMINISTIC else 0)

    values: Dict[str, float] = {metric: 0.0 for metric in catalogue.PER_LAYER_NAMES}
    values.update(passes[0].layer)
    # Tracer seconds are raw; scale them like every other time, except the
    # event loop's idle time, which is real time.
    values.update({metric: value * traced.speed_factor
                   if metric.endswith("_s") and metric not in REAL_TIME else value
                   for metric, value in probes.layer_metrics(tracer).items()})
    values["trace.wall_s"] = traced.wall_s
    if reference is not None:
        values["trace.overhead_frac"] = traced.cpu_s / reference.cpu_s - 1.0
    values["trace.coverage_frac"] = coverage(tracer, traced.raw_wall_s)
    spans_path = OUT_DIR / "trace" / f"{name}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)

    attempted = sum(p.attempted for p in passes) + n_checks
    failed = sum(p.failed for p in passes) + len(checks)
    info: Dict[str, Any] = {"wrapped": installed,
                            "spans_file": str(spans_path.relative_to(ROOT)),
                            "raw_traced_wall_s": traced.raw_wall_s}
    return _result(name, values, catalogue.PER_LAYER_NAMES, attempted, failed,
                   [p for result in passes for p in result.problems] + checks, info)


def _result(name: str, values: Dict[str, float], wanted: List[str], attempted: int,
            failed: int, problems: List[str], info: Dict[str, Any]) -> Dict[str, Any]:
    extra = sorted(set(values) - set(wanted))
    missing = sorted(set(wanted) - set(values))
    if extra or missing:
        raise RuntimeError(f"{name}: metric set mismatch: extra {extra}, missing {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": float(values[metric]),
                             "unit": catalogue.UNITS[metric]} for metric in wanted},
        "_problems": problems,
        "_info": info,
    }


def _print_result(name: str, result: Dict[str, Any]) -> None:
    for problem in result.pop("_problems")[:20]:
        print(f"{name}: CHECK FAILED: {problem}")
    for key, value in result.pop("_info").items():
        print(f"{name}: {key} = {value}")
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    script = Path(__file__).resolve().parent / "run.py"
    failed = False
    rows: List[str] = []
    for name in catalogue.WORKLOADS:
        walls: Dict[int, float] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(script), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{name} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
                failed = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failed = True
                for line in proc.stdout.splitlines():
                    if "CHECK FAILED" in line:
                        print(line)
            rows.append(f"{name:18} {'traced' if trace else 'e2e':6} "
                        f"checks {result['attempted'] - result['failed']}/{result['attempted']}")
            metrics = result["metrics"]
            for metric, entry in metrics.items():
                if trace and not entry["value"]:
                    continue  # a layer this workload does not touch
                rows.append(f"{name:18} {metric:40} {entry['value']:>14.6g} {entry['unit']}")
            walls[trace] = metrics["trace.wall_s" if trace else "wall_s"]["value"]
        if len(walls) == 2:
            rows.append(f"{name:18} {'trace.wall_s / untraced wall_s - 1':40} "
                        f"{walls[1] / walls[0] - 1.0:>14.6g} frac")
    print("\n".join(rows))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    _print_result(args.workload, result)
    return 0
