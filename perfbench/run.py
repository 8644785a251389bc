#!/usr/bin/env python3
"""The reproduction's benchmark: end to end, or layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sa-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures an untraced phase, then installs timing wrappers
around each layer's public calls (:mod:`tracing`) and runs the same
passes again; it prints the per-layer metrics and the tracing overhead.
Both print a human-readable table and then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when any output check or work-count check fails.

See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

clock = time.perf_counter

END_TO_END_UNITS = {
    "units_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "host.ref_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "runtime.steps_per_request": "count",
    "runtime.step_us": "us",
    "runtime.step_self_us": "us",
    "runtime.scheduler_us": "us",
    "runtime.run_share": "ratio",
    "core.resume_us": "us",
    "core.verdict_ms": "ms",
    "core.useful_step_share": "ratio",
    "memory.execute_us": "us",
    "memory.ops_per_request": "count",
    "detectors.query_us": "us",
    "detectors.sample_ms": "ms",
    "obs.collector_ms": "ms",
    "analysis.trial_overhead_ms": "ms",
    "tasks.check_ms": "ms",
    "mc.dfs_states_per_s": "1/s",
    "mc.bfs_states_per_s": "1/s",
    "mc.states_visited": "count",
    "mc.states_distinct": "count",
    "mc.por_slept_share": "ratio",
    "mc.restores": "count",
    "mc.gen_replay_steps": "count",
    "mc.replay_steps": "count",
    "mc.digest_us": "us",
    "mc.checkpoint_us": "us",
    "mc.restore_us": "us",
    "perf.local_round_ms": "ms",
    "perf.cache_put_ms": "ms",
    "perf.cache_get_ms": "ms",
    "perf.queue_wait_ms": "ms",
    "perf.execute_ms": "ms",
    "perf.worker_busy_share": "ratio",
    "perf.batches": "count",
    "perf.pickle_bytes_per_trial": "B",
    "perf.pool_spawns": "count",
    "perf.trial_retries": "count",
    "perf.quarantined": "count",
    "farm.round_ms": "ms",
    "farm.claim_ms": "ms",
    "farm.complete_ms": "ms",
    "farm.store_retries": "count",
}

CAMPAIGN_LAYER_METRICS = (
    "perf.queue_wait_ms", "perf.execute_ms", "perf.worker_busy_share",
    "perf.batches", "perf.pickle_bytes_per_trial", "perf.pool_spawns",
    "perf.trial_retries", "perf.quarantined", "farm.store_retries",
)

#: Reference-kernel time (ms) of the host speed end-to-end metrics are
#: scaled to; about the kernel's median on the 2-vCPU host the bounds in
#: BENCHMARK.json were set on.
REFERENCE_MS = 20.0

#: Candidate tail percentiles; a workload reports the highest one with at
#: least ten samples beyond it in its smallest possible sample.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sa-sweep", "extract-sweep", "check",
                                 "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--sabotage", action="store_true",
                        help="campaign: swap two result slots of the "
                             "first round (self-test of the output check)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- measurement helpers -------------------------------------------------


def percentile(samples, pct):
    """Linear interpolation between closest ranks."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(min_samples):
    return max(p for p in TAIL_PERCENTILES
               if min_samples * (100 - p) / 100.0 >= 10)


def reference_kernel():
    """Fixed pure-Python work that touches nothing of the program: its
    time moves only with the host."""
    acc, table = 0, {}
    for i in range(50_000):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        table[acc & 4095] = i
    return acc + len(table)


def host_slowdown(before, after):
    """How much slower than the reference host the host ran around a
    timed span, from the kernel times before and after it."""
    return (before + after) / 2 * 1e3 / REFERENCE_MS


def time_reference(processes=1):
    """Wall time of the kernel run at once in ``processes`` processes
    (this one and forked copies): the speed of as many CPUs as the
    workload keeps busy."""
    start = clock()
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            reference_kernel()
            os._exit(0)
        children.append(pid)
    reference_kernel()
    for pid in children:
        os.waitpid(pid, 0)
    return clock() - start


def peak_rss_kb(pid="self"):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def measure(workload, host, seconds, min_passes=None, passes=None):
    """Run whole passes: ``passes`` of them, or at least ``min_passes``
    and until ``seconds`` have gone by.

    The reference kernel is timed before every pass and after the last
    (into ``host``), and each pass records the :func:`host_slowdown`
    around it.
    """
    out = []
    deadline = clock() + seconds
    before = time_reference(workload.processes)
    host.append(before)
    while True:
        if passes is not None:
            if len(out) >= passes:
                break
        elif len(out) >= min_passes and clock() >= deadline:
            break
        try:
            result = workload.run_pass()
        except Exception as exc:  # a request raised: the pass failed
            print(f"perfbench: pass {len(out)} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return out, False
        after = time_reference(workload.processes)
        host.append(after)
        result.slowdown = host_slowdown(before, after)
        out.append(result)
        before = after
    return out, True


def probe_setup(args, processes):
    """Fresh-process set-up times, spawn to the first request's start,
    each divided by the :func:`host_slowdown` around it."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    times = []
    before = time_reference(processes)
    for _ in range(2 if args.tiny else SETUP_PROBES):
        start = clock()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
        line = child.stdout.readline()
        elapsed = clock() - start
        child.stdout.read()
        child.wait()
        if child.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed ({child.returncode})")
        after = time_reference(processes)
        times.append(elapsed / host_slowdown(before, after))
        before = after
    return times


def code_digest():
    """Hash of the program and benchmark sources: counts recorded by one
    version are compared only with runs of the same version."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(args, counts):
    """Compare this run's work counts with the first run of the same
    seed and code; record them if this is that run."""
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    path = SCRATCH / "counts" / f"{tag}-{code_digest()}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            print(f"perfbench: work counts differ from the first run of "
                  f"this seed: {recorded} != {counts}", file=sys.stderr)
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return True


# -- metrics -------------------------------------------------------------


def end_to_end(workload, passes, min_passes, setup_times, rss_kb):
    """End-to-end metrics.  Rates and latencies are scaled to a host on
    which the reference kernel takes :data:`REFERENCE_MS`, pass by pass
    (``PassResult.slowdown``): the host's speed drifts by tens of percent
    within seconds to minutes, and the program's speed drifts with it."""
    latencies = [x for p in passes for x in p.latencies]
    scaled = [x / p.slowdown for p in passes for x in p.latencies]
    pct = tail_percentile(min_passes * len(passes[0].latencies))
    tail = percentile(scaled, pct)
    beyond = sum(1 for x in scaled if x > tail)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} samples beyond p{pct}")
    raw = {
        "units_per_s": statistics.median(p.units / p.wall for p in passes),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_tail_ms": percentile(latencies, pct) * 1e3,
    }
    values = {
        "units_per_s": statistics.median(
            p.units / p.wall * p.slowdown for p in passes
        ),
        "request_p50_ms": statistics.median(scaled) * 1e3,
        "request_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = {
        "units_per_s": f"{len(passes)} passes",
        "request_p50_ms": f"{len(latencies)} {workload.unit}s",
        "request_tail_ms": f"p{pct} of {len(latencies)} {workload.unit}s",
        "setup_s": f"{len(setup_times)} processes",
        "peak_rss_mb": "1 run",
    }
    for name, value in raw.items():
        samples[name] += f"; {value:.6g} as measured"
    return values, samples


def per_layer(workload, untraced, traced, spans, extra, host_ms):
    requests = sum(len(p.latencies) for p in traced)
    request_s = sum(x for p in traced for x in p.latencies)
    counts = traced[0].counts

    def calls(name):
        return spans[name][0]

    def per_call(name, scale):
        n, total, _ = spans[name]
        return total / n * scale if n else 0.0

    def untraced_median(key):
        values = [p.layer[key] for p in untraced if key in p.layer]
        return statistics.median(values) if values else 0.0

    sweep = workload.name in ("sa-sweep", "extract-sweep")
    step_n, step_total, step_child = spans["runtime.step"]
    run_total = spans["runtime.run"][1]
    enabled = counts.get("enabled", 0)
    values = {
        "host.ref_ms": host_ms,
        "trace.overhead_ratio": (
            statistics.median(p.wall / p.slowdown for p in traced)
            / statistics.median(p.wall / p.slowdown for p in untraced)
        ),
        "runtime.steps_per_request": calls("runtime.step") / requests,
        "runtime.step_us": per_call("runtime.step", 1e6),
        "runtime.step_self_us": (
            (step_total - step_child) / step_n * 1e6 if step_n else 0.0
        ),
        "runtime.scheduler_us": per_call("runtime.scheduler", 1e6),
        "runtime.run_share": run_total / request_s if sweep else 0.0,
        "core.resume_us": per_call("core.resume", 1e6),
        "core.verdict_ms": per_call("core.verdict", 1e3),
        "core.useful_step_share": (
            counts["settle_steps"] / counts["steps"]
            if "settle_steps" in counts else 0.0
        ),
        "memory.execute_us": per_call("memory.execute", 1e6),
        "memory.ops_per_request": calls("memory.execute") / requests,
        "detectors.query_us": per_call("detectors.query", 1e6),
        "detectors.sample_ms": per_call("detectors.sample", 1e3),
        "obs.collector_ms": (
            spans["obs.collector_init"][1] + spans["obs.collector_snapshot"][1]
        ) / requests * 1e3,
        "analysis.trial_overhead_ms": (
            (request_s - run_total) / requests * 1e3 if sweep else 0.0
        ),
        "tasks.check_ms": per_call("tasks.check", 1e3),
        "mc.dfs_states_per_s": untraced_median("mc.dfs_states_per_s"),
        "mc.bfs_states_per_s": untraced_median("mc.bfs_states_per_s"),
        "mc.states_visited": counts.get("states_visited", 0),
        "mc.states_distinct": counts.get("states_distinct", 0),
        "mc.por_slept_share": (
            counts["slept"] / enabled if enabled else 0.0
        ),
        "mc.restores": counts.get("restores", 0),
        "mc.gen_replay_steps": counts.get("gen_replay_steps", 0),
        "mc.replay_steps": counts.get("replay_steps", 0),
        "mc.digest_us": per_call("mc.digest", 1e6),
        "mc.checkpoint_us": per_call("mc.checkpoint", 1e6),
        "mc.restore_us": per_call("mc.restore", 1e6),
        "perf.local_round_ms": untraced_median("perf.local_round_ms"),
        "perf.cache_put_ms": per_call("perf.cache_put", 1e3),
        "perf.cache_get_ms": per_call("perf.cache_get", 1e3),
        "farm.round_ms": untraced_median("farm.round_ms"),
        "farm.claim_ms": per_call("farm.claim", 1e3),
        "farm.complete_ms": per_call("farm.complete", 1e3),
    }
    # The numbers only a campaign's traced rounds gather.
    values.update(dict.fromkeys(CAMPAIGN_LAYER_METRICS, 0))
    values.update(extra)
    if set(values) != set(LAYER_UNITS):
        raise RuntimeError(
            f"per-layer metrics {sorted(set(values) ^ set(LAYER_UNITS))} "
            "are computed but not declared, or declared but not computed"
        )
    return values


def install_spans(tracer):
    """Wrap every layer's public calls (shared by all workloads)."""
    from repro.analysis import runner
    from repro.detectors.base import DetectorSpec, History
    from repro.farm.store import SQLiteFarmStore
    from repro.mc.checkpoint import SimulationJournal
    from repro.memory.base import Memory
    from repro.obs.metrics import MetricsCollector
    from repro.perf.cache import TrialCache
    from repro.runtime.process import ProcessRuntime
    from repro.runtime.scheduler import Scheduler
    from repro.runtime.simulation import Simulation
    from repro.tasks.set_agreement import SetAgreementSpec

    tracer.wrap(Simulation, "step", "runtime.step")
    tracer.wrap(Simulation, "run", "runtime.run")
    tracer.wrap_overrides(Scheduler, "choose", "runtime.scheduler")
    tracer.wrap(ProcessRuntime, "resume", "core.resume")
    tracer.wrap(runner, "stable_emulated_output", "core.verdict")
    tracer.wrap_overrides(Memory, "execute", "memory.execute")
    tracer.wrap_overrides(History, "value", "detectors.query")
    tracer.wrap_overrides(DetectorSpec, "sample_history", "detectors.sample")
    tracer.wrap(MetricsCollector, "__init__", "obs.collector_init")
    tracer.wrap(MetricsCollector, "snapshot", "obs.collector_snapshot")
    tracer.wrap(SetAgreementSpec, "check", "tasks.check")
    tracer.wrap(SimulationJournal, "digest", "mc.digest")
    tracer.wrap(SimulationJournal, "checkpoint", "mc.checkpoint")
    tracer.wrap(SimulationJournal, "restore", "mc.restore")
    tracer.wrap(TrialCache, "put_many", "perf.cache_put")
    tracer.wrap(TrialCache, "get_many", "perf.cache_get")
    tracer.wrap(SQLiteFarmStore, "claim_batch", "farm.claim")
    tracer.wrap(SQLiteFarmStore, "complete", "farm.complete")


# -- the run -------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources (src/repro) are not in "
              f"{ROOT}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Campaign

    # One campaign run at a time per checkout: its caches and store are
    # kept between runs (see workloads.Campaign.run_pass).
    scratch = SCRATCH / (args.workload + ("-tiny" if args.tiny else ""))
    kwargs = {"sabotage": args.sabotage} if args.workload == "campaign" else {}
    if args.sabotage and args.workload != "campaign":
        print("perfbench: --sabotage applies to campaign only",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch,
                                        **kwargs)
    workload.setup()
    if args.setup_probe:
        print("ready", flush=True)
        workload.close()
        return 0

    try:
        setup_times = (
            [] if args.trace else probe_setup(args, workload.processes)
        )
        if isinstance(workload, Campaign):
            workload.prepare()
        min_passes = workload.min_passes
        host = []
        if args.trace:
            untraced, ok = measure(workload, host, args.seconds / 3,
                                   min_passes=min(3, min_passes))
            traced, extra, spans = [], {}, None
            if ok:
                from tracing import Tracer, span_delta

                tracer = Tracer()
                install_spans(tracer)
                hooks = workload.trace(tracer) if isinstance(
                    workload, Campaign) else None
                before = tracer.totals()
                traced, ok = measure(workload, host, 0, passes=len(untraced))
                spans = span_delta(before, tracer.totals())
                extra = hooks() if hooks else {}
            phases = untraced + traced
        else:
            phases, ok = measure(workload, host, args.seconds,
                                 min_passes=min_passes)
        rss_kb = peak_rss_kb()
        if isinstance(workload, Campaign):
            rss_kb += sum(peak_rss_kb(pid) for pid in workload.worker_pids())
    finally:
        workload.close()
    raised = 0 if ok else 1

    # A pass that raised counts as one more failed request.
    attempted = sum(len(p.latencies) for p in phases) + raised
    failed = sum(p.failed for p in phases) + raised
    counts = [p.counts for p in phases]
    if ok and any(c != counts[0] for c in counts):
        print("perfbench: passes did different work: "
              f"{[c for c in counts if c != counts[0]][0]} != {counts[0]}",
              file=sys.stderr)
        ok = False
    if ok:
        ok = check_counts(args, counts[0])
    host_ms = statistics.median(host) * 1e3

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(phases)} passes, {attempted} {workload.unit}s attempted, "
          f"{failed} failed; host.ref_ms {host_ms:.3f}")
    if ok and args.trace:
        metrics = per_layer(workload, untraced, traced, spans, extra, host_ms)
        units = LAYER_UNITS
        samples = {}
    elif ok:
        metrics, samples = end_to_end(workload, phases, min_passes,
                                      setup_times, rss_kb)
        units = END_TO_END_UNITS
    else:
        metrics, samples, units = {}, {}, {}
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} "
              f"{samples.get(name, '')}")
    if phases:
        print("counts " + json.dumps(counts[0], sort_keys=True))
    correct = ok and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
