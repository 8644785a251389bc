"""The four benchmark workloads.

Every workload turns the benchmark seed into a fixed set of inputs and
runs them as identical *passes*; a pass returns its wall time, the
latency of every request in it, the requests that failed their output
check, and a dictionary of deterministic work counts that must repeat
exactly on every pass and every run of the same seed.

All load is closed-loop from one process: the next request starts when
the previous one has returned.  ``sa-sweep``, ``extract-sweep`` and
``check`` run serially; ``campaign`` drives two pool workers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.sweeps import extraction_grid, set_agreement_grid
from repro.mc import CrashSweep, ExploreConfig, McInstance, check
from repro.mc.instances import sweep_instances
from repro.perf import TrialCache, run_trials
from repro.perf import executor as _executor
from repro.perf.spec import SetAgreementTrialSpec, environment_salt

clock = time.perf_counter

#: Worker processes for ``campaign``: the number of vCPUs of the
#: 2-vCPU host the bounds in BENCHMARK.json were measured on.
CAMPAIGN_JOBS = 2


@dataclasses.dataclass
class PassResult:
    wall: float
    units: int
    latencies: List[float]
    failed: int
    counts: Dict[str, int]
    #: Untraced per-layer numbers this pass measured from the outside.
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: How much slower than the reference host the host ran around the
    #: pass (set by the measuring loop).
    slowdown: float = 1.0


def _memory_ops(result) -> int:
    return sum(result.metrics["counters"]["memory_ops"].values())


class Workload:
    name = ""
    unit = "trial"
    #: Passes every measured phase runs at least; sized so that the tail
    #: percentile has at least ten samples beyond it.
    min_passes = 1
    #: Processes the workload keeps busy (the host-speed probe runs in
    #: as many).
    processes = 1

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch

    def setup(self) -> None:
        """Everything between imports and the first timed request."""
        environment_salt()

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Sweep(Workload):
    """A trial grid through ``run_trials(jobs=1)`` with no cache; the
    request is one trial, timed around the executor's call into it."""

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.grid = self.build_grid()
        self._latencies: List[float] = []

    def setup(self) -> None:
        super().setup()
        execute = _executor.execute_trial
        latencies = self._latencies

        def timed_execute(spec, *args, **kwargs):
            start = clock()
            result = execute(spec, *args, **kwargs)
            latencies.append(clock() - start)
            return result

        _executor.execute_trial = timed_execute

    def run_pass(self) -> PassResult:
        self._latencies.clear()
        start = clock()
        results = run_trials(self.grid, jobs=1)
        wall = clock() - start
        failed = sum(1 for r in results if not self.output_ok(r))
        return PassResult(
            wall, len(results), list(self._latencies), failed,
            self.counts(results),
        )

    def counts(self, results) -> Dict[str, int]:
        return {
            "trials": len(results),
            "steps": sum(r.total_steps for r in results),
            "memory_ops": sum(_memory_ops(r) for r in results),
        }


class SaSweep(_Sweep):
    """Fig. 1 / Fig. 2 set agreement: short trials, per-trial cost shows."""

    name = "sa-sweep"
    min_passes = 5

    def build_grid(self):
        # A trial's steps depend on the failure pattern its seed draws:
        # with 8 seeds per cell a pass's steps moved by ±12% from one
        # benchmark seed to the next, with 32 by ±5%.
        base = self.seed * 1000
        seeds = range(base, base + (2 if self.tiny else 64))
        sizes = [3, 4] if self.tiny else [3, 4, 5, 6]
        return (
            set_agreement_grid(sizes, seeds, [0, 100, 300])
            + set_agreement_grid(
                [4] if self.tiny else [4, 5, 6], seeds, [0, 100, 300],
                fs=[1, 2],
            )
            # Lock-step trials ignore the seed, and the stabilization-300
            # ones are the slowest of the grid (1.6% of it): p99 falls
            # among them, so the tail does not move with the seed.
            + set_agreement_grid(
                sizes, seeds[:8], [100, 300], adversarial=True,
            )
        )

    @staticmethod
    def output_ok(result) -> bool:
        return result.ok


class ExtractSweep(_Sweep):
    """Fig. 3 extraction of Υf: every trial runs the full step budget."""

    name = "extract-sweep"
    min_passes = 7

    def build_grid(self):
        # One trial seed per detector and size keeps a pass near 2 s, so
        # the host speed measured around it describes it; with four seeds
        # per cell (7 s passes) the run-to-run spread grew from 0.08 to
        # 0.13, more than the seed-to-seed spread of the work it saved.
        return extraction_grid(
            ["omega", "omega_n", "diamond_p"], [3, 4], [self.seed],
            max_steps=2_000 if self.tiny else 40_000,
        )

    @staticmethod
    def output_ok(result) -> bool:
        return result.stabilized and result.legal

    def counts(self, results) -> Dict[str, int]:
        counts = super().counts(results)
        counts["settle_steps"] = sum(r.output_settle_time for r in results)
        return counts


class Check(Workload):
    """``repro.mc.check`` on one failure pattern per request: Fig. 1 and
    Fig. 2 by DFS under a crash sweep, and Fig. 1 by BFS."""

    name = "check"
    unit = "instance"
    min_passes = 5

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        # The seed drives the detectors' noise before stabilization and
        # the request order; the explored state counts do not depend on
        # it, so every seed asks for the same amount of work.
        common = dict(stabilization_time=2, noise_seed=seed)
        depth = 6 if tiny else 10
        crash_times = (0, 2) if tiny else (0, 2, 4)
        dfs = ExploreConfig(max_depth=depth)
        bfs = ExploreConfig(max_depth=10 if tiny else 16, strategy="bfs")
        self.requests = [
            (instance, dfs)
            for base in (
                McInstance("fig1", 3, **common),
                McInstance("fig2", 3, f=1, **common),
            )
            for instance in sweep_instances(base, CrashSweep(1, crash_times))
        ] + [
            (instance, bfs)
            for instance in sweep_instances(
                McInstance("fig1", 2, **common), CrashSweep(1, (0, 3)),
            )
        ]
        random.Random(seed).shuffle(self.requests)

    def run_pass(self) -> PassResult:
        latencies: List[float] = []
        failed = 0
        totals = dict.fromkeys(
            ("states_visited", "states_distinct", "restores",
             "replay_steps", "gen_replay_steps", "slept", "enabled"), 0,
        )
        states = {"dfs": [0, 0.0], "bfs": [0, 0.0]}
        start = clock()
        for instance, config in self.requests:
            began = clock()
            report = check(instance, config)
            elapsed = clock() - began
            latencies.append(elapsed)
            if not report.ok:
                failed += 1
            stats = report.total_stats()
            reduction = report.total_reduction()
            for key in totals:
                source = reduction if key in ("slept", "enabled") else stats
                totals[key] += getattr(source, key)
            states[config.strategy][0] += stats.states_visited
            states[config.strategy][1] += elapsed
        wall = clock() - start
        totals["instances"] = len(self.requests)
        return PassResult(
            wall, len(self.requests), latencies, failed, totals,
            layer={
                f"mc.{kind}_states_per_s": n / seconds
                for kind, (n, seconds) in states.items()
            },
        )


class Campaign(Workload):
    """A seeded F1 grid at ``jobs=2``, one request per round.

    A round runs the grid through both executors — the local resilient
    one (``retries=1``) and an empty SQLite farm store — each first cold
    into an empty :class:`TrialCache` (writes), then warm from it
    (reads).  Which executor goes first alternates from round to round.
    Every one of the four result lists must equal the serial run.
    """

    name = "campaign"
    unit = "round"
    min_passes = 40
    processes = CAMPAIGN_JOBS

    def __init__(self, seed, tiny, scratch, sabotage: bool = False):
        super().__init__(seed, tiny, scratch)
        base = seed * 1000
        self.grid = set_agreement_grid(
            [3, 4] if tiny else [3, 4, 5, 6],
            range(base, base + (2 if tiny else 6)),
            [0, 100, 300],
        )
        self.sabotage = sabotage
        self.caches = {
            leg: TrialCache(scratch / leg) for leg in ("local", "farm")
        }
        self.reference: Optional[List[Any]] = None
        self.rounds = 0
        self.walls: List[float] = []
        #: Filled by the traced run: a collector, and per-leg dispatch.
        self.collector = None
        self.dispatch = None

    def setup(self) -> None:
        super().setup()
        self.scratch.mkdir(parents=True, exist_ok=True)
        # Fork the pool and wait until each worker has answered once.
        ping = [
            SetAgreementTrialSpec(n_processes=2, f=1, seed=i,
                                  stabilization_time=0)
            for i in range(CAMPAIGN_JOBS)
        ]
        run_trials(ping, jobs=CAMPAIGN_JOBS, chunk_size=1)

    def prepare(self) -> None:
        """The serial baseline every round is checked against (untimed)."""
        self.reference = run_trials(self.grid, jobs=1)

    def _leg(self, farm: bool):
        kwargs: Dict[str, Any] = {
            "jobs": CAMPAIGN_JOBS,
            "cache": self.caches["farm" if farm else "local"],
        }
        if farm:
            kwargs["store"] = f"sqlite:///{self.scratch / 'farm.db'}"
        else:
            kwargs["retries"] = 1
            if self.dispatch is not None:
                kwargs["dispatch"] = self.dispatch
        if self.collector is not None:
            kwargs["collector"] = self.collector
        return [run_trials(self.grid, **kwargs) for _ in ("cold", "warm")]

    def run_pass(self) -> PassResult:
        # Every round starts from empty caches and an empty store.  They
        # are emptied in place, and kept for the next run: on a disk
        # mounted with online discard, deleting files and directories
        # slowed later writes by up to 50% for minutes, and the rounds
        # write to the checkout's disk.
        for cache in self.caches.values():
            cache.clear()
        store = self.scratch / "farm.db"
        if store.exists():
            with contextlib.closing(sqlite3.connect(store)) as conn, conn:
                tables = [name for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )]
                for table in tables:
                    conn.execute(f'DELETE FROM "{table}"')
        farm_first = self.rounds % 2 == 1
        legs: Dict[str, float] = {}
        outputs = []
        start = clock()
        for farm in (farm_first, not farm_first):
            began = clock()
            outputs += self._leg(farm)
            legs["farm" if farm else "local"] = clock() - began
        wall = clock() - start
        if self.sabotage and self.rounds == 0:
            results = outputs[0]
            results[0], results[-1] = results[-1], results[0]
        self.rounds += 1
        self.walls.append(wall)
        failed = int(any(results != self.reference for results in outputs))
        return PassResult(
            wall, len(self.grid) * len(outputs), [wall], failed,
            {
                "trials": sum(len(results) for results in outputs),
                "steps": sum(
                    r.total_steps for results in outputs for r in results
                    if r is not None
                ),
            },
            layer={
                "perf.local_round_ms": legs["local"] * 1e3,
                "farm.round_ms": legs["farm"] * 1e3,
            },
        )

    def trace(self, tracer):
        """Instrument the traced phase; returns a reader of the extra
        ``perf.*`` and ``farm.*`` numbers it gathered."""
        from repro.farm.store import RetryingStore
        from repro.obs.events import (
            TrialQuarantined,
            TrialRetried,
            TrialSpanRecorded,
        )
        from repro.obs.metrics import MetricsCollector
        from repro.perf import DispatchStats, pool, reset_shared_pool

        # Workers publish their spans after every batch; re-fork the pool
        # so the workers inherit the wrappers.
        tracer.after(pool, "_execute_batch", tracer.flush)
        tracer.share_with_forks()
        reset_shared_pool()
        self.setup()

        stores: List[Any] = []
        init = RetryingStore.__init__

        def tracked_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(store)

        RetryingStore.__init__ = tracked_init
        spans: Dict[str, List[float]] = {"queue_wait": [], "execute": []}
        events = {TrialRetried: 0, TrialQuarantined: 0}

        def on_span(event):
            if event.span in spans:
                spans[event.span].append(event.seconds)

        def on_event(event):
            events[type(event)] += 1

        self.collector = MetricsCollector()
        self.collector.bus.subscribe(on_span, (TrialSpanRecorded,))
        self.collector.bus.subscribe(on_event, tuple(events))
        self.dispatch = DispatchStats()
        first_round = self.rounds

        def read() -> Dict[str, float]:
            rounds = self.rounds - first_round
            dispatch = self.dispatch
            pickled = dispatch.pickle_bytes_out + dispatch.pickle_bytes_in

            def mean_ms(values):
                return sum(values) / len(values) * 1e3 if values else 0.0

            return {
                "perf.queue_wait_ms": mean_ms(spans["queue_wait"]),
                "perf.execute_ms": mean_ms(spans["execute"]),
                "perf.worker_busy_share": sum(spans["execute"])
                / (sum(self.walls[-rounds:]) * CAMPAIGN_JOBS),
                "perf.batches": dispatch.batches / rounds,
                "perf.pickle_bytes_per_trial": pickled / max(1, dispatch.trials),
                "perf.pool_spawns": dispatch.pool_spawns,
                "perf.trial_retries": events[TrialRetried],
                "perf.quarantined": events[TrialQuarantined],
                "farm.store_retries": sum(store.retried for store in stores),
            }

        return read

    @staticmethod
    def worker_pids() -> List[int]:
        """The live pool workers."""
        import multiprocessing

        return [child.pid for child in multiprocessing.active_children()]

    def close(self) -> None:
        from repro.perf import reset_shared_pool

        reset_shared_pool()


WORKLOADS = {w.name: w for w in (SaSweep, ExtractSweep, Check, Campaign)}
