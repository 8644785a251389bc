"""Chaos trials: the paper's protocols under all three injectors at once.

A :class:`ChaosTrialSpec` is a picklable recipe for one seeded run of a
Fig. 1 / Fig. 2 / Fig. 3 protocol — or of k-converge over ABD-emulated
registers (``abd-converge``, the protocol that actually exercises the
network injector) — with a lying detector prefix, a faulty network, and
a perturbed scheduler.  Properties are checked through the
:mod:`repro.mc.properties` adapters on the finished run, so the same
oracles validate chaotic trials and exhaustive explorations.

The ``sabotage`` field is the harness's own fault injector: it makes the
*worker* fail (raise / die / hang) so the retry, quarantine, and watchdog
machinery of :mod:`repro.perf.resilience` can be tested and demonstrated
end-to-end (``repro sweep chaos --inject-worker-crash``).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional

from ..core.extraction import extraction_stop_rule
from .config import ChaosConfig

#: Default per-trial step budget (ABD quorum rounds under jitter are slow).
_DEFAULT_MAX_STEPS = 400_000

PROTOCOLS = ("fig1", "fig2", "extraction", "abd-converge")


@dataclasses.dataclass(frozen=True)
class ChaosTrialSpec:
    """One seeded chaos trial (picklable, cache-keyable).

    ``f = None`` means the protocol's natural default: wait-free for
    ``fig1``/``extraction``, ``n − 1`` for ``fig2``, the largest
    majority-safe resilience ``⌊n/2⌋`` for ``abd-converge``.

    ``sabotage`` (harness self-test only): ``"raise"`` fails the trial
    with an exception, ``"crash"`` kills the worker process outright,
    ``"hang"`` sleeps past any reasonable watchdog, and
    ``"raise-once:<path>"`` fails only while ``<path>`` does not exist
    (it is created on the first attempt — a deterministic flake).
    """

    protocol: str
    n_processes: int
    seed: int
    f: Optional[int] = None
    detector: str = "omega"          # extraction source (registry name)
    lying_prefix: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_jitter: int = 4
    burst_length: int = 0
    starvation_window: int = 0
    fairness_bound: int = 64
    max_steps: int = _DEFAULT_MAX_STEPS
    sabotage: str = ""

    kind = "chaos"

    def chaos_config(self) -> ChaosConfig:
        return ChaosConfig(
            seed=self.seed,
            lying_prefix=self.lying_prefix,
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            reorder_jitter=self.reorder_jitter,
            burst_length=self.burst_length,
            starvation_window=self.starvation_window,
            fairness_bound=self.fairness_bound,
        )


def spec_from_chaos(
    protocol: str,
    n_processes: int,
    seed: int,
    chaos: ChaosConfig,
    f: Optional[int] = None,
    detector: str = "omega",
    max_steps: int = _DEFAULT_MAX_STEPS,
) -> ChaosTrialSpec:
    """Build a :class:`ChaosTrialSpec` from a :class:`ChaosConfig`."""
    return ChaosTrialSpec(
        protocol=protocol,
        n_processes=n_processes,
        seed=seed,
        f=f,
        detector=detector,
        lying_prefix=chaos.lying_prefix,
        drop_rate=chaos.drop_rate,
        duplicate_rate=chaos.duplicate_rate,
        reorder_rate=chaos.reorder_rate,
        reorder_jitter=chaos.reorder_jitter,
        burst_length=chaos.burst_length,
        starvation_window=chaos.starvation_window,
        fairness_bound=chaos.fairness_bound,
        max_steps=max_steps,
    )


@dataclasses.dataclass
class ChaosTrialResult:
    """Flat outcome of one chaos trial (CSV-exportable)."""

    protocol: str
    n_processes: int
    f: int
    seed: int
    lying_prefix: int
    drop_rate: float
    faulty: int
    decided: bool
    ok: bool
    violations: str
    total_steps: int
    last_decision_time: int
    messages_dropped: int
    messages_duplicated: int
    messages_delayed: int
    bursts: int
    starvations: int
    metrics: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False
    )


def _apply_sabotage(sabotage: str) -> None:
    if not sabotage:
        return
    if sabotage == "raise":
        raise RuntimeError("sabotage: deliberate trial failure")
    if sabotage == "crash":
        import os

        os._exit(23)  # simulate a worker death (OOM-killer style)
    if sabotage == "hang":
        import time

        time.sleep(3600)  # the watchdog must cut this short
        raise RuntimeError("sabotage: hang outlived the watchdog")
    if sabotage.startswith("raise-once:"):
        from pathlib import Path

        marker = Path(sabotage.partition(":")[2])
        if not marker.exists():
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
            raise RuntimeError("sabotage: first-attempt flake")
        return
    raise ValueError(f"unknown sabotage mode {sabotage!r}")


def _announce(bus, chaos: ChaosConfig) -> None:
    """One ChaosInjected event per active knob, stamped at t=0."""
    from ..obs.events import ChaosInjected

    if bus is None or not bus.active:
        return
    knobs = (
        ("lying-prefix", chaos.lying_prefix),
        ("drop", chaos.drop_rate),
        ("duplicate", chaos.duplicate_rate),
        ("reorder", chaos.reorder_rate),
        ("burst", chaos.burst_length),
        ("starvation", chaos.starvation_window),
    )
    for kind, setting in knobs:
        if setting:
            bus.publish(ChaosInjected(0, kind, str(setting)))


def run_chaos_trial(
    spec: ChaosTrialSpec,
    collector=None,
    *,
    pristine: bool = False,
    sim_out: Optional[list] = None,
    stop_rule=extraction_stop_rule,
) -> ChaosTrialResult:
    """Execute one chaos trial and check its properties.

    Termination is checked explicitly (``all_correct_decided`` for the
    decision protocols, output stabilization for extraction) — the
    adapters' :class:`~repro.mc.properties.TerminationProperty` is
    vacuous on non-quiescent runs, and a chaotic run that stalls is
    precisely what we must not miss.

    ``pristine`` (zero-severity specs only) bypasses the chaos machinery
    entirely: the inner :class:`~repro.runtime.scheduler.RandomScheduler`
    runs unwrapped and ``abd-converge`` uses the plain reliable
    :class:`~repro.messaging.network.Network`.  A zero-severity chaos run
    and its pristine twin must be step-for-step identical — that claim is
    what the ``chaos-zero`` oracle of :mod:`repro.audit` checks.

    ``sim_out``, when a list, receives the finished
    :class:`~repro.runtime.simulation.Simulation` (for trace-level diffs).

    ``stop_rule`` (extraction only) is the early-stop factory, default
    :func:`~repro.core.extraction.extraction_stop_rule`; ``None`` runs
    every extraction to ``spec.max_steps``.
    """
    _apply_sabotage(spec.sabotage)
    if spec.protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown chaos protocol {spec.protocol!r}; "
            f"expected one of {PROTOCOLS}"
        )

    from ..obs.metrics import MetricsCollector
    from ..runtime.process import System
    from ..runtime.scheduler import RandomScheduler
    from .scheduler import ChaosScheduler

    chaos = spec.chaos_config()
    if pristine and chaos.any_active:
        raise ValueError(
            "pristine execution requires a zero-severity chaos spec; "
            f"got active knobs in {chaos!r}"
        )
    system = System(spec.n_processes)
    rng = random.Random(
        f"chaos:{spec.protocol}:{spec.n_processes}:{spec.f}:{spec.seed}"
    )
    if collector is None:
        collector = MetricsCollector()
    bus = collector.bus
    _announce(bus, chaos)
    if pristine:
        scheduler = RandomScheduler(spec.seed)
    else:
        scheduler = ChaosScheduler(RandomScheduler(spec.seed), chaos, bus=bus)

    if spec.protocol == "abd-converge":
        sim, network, f_eff, violations, decided = _run_abd_converge(
            spec, system, chaos, rng, scheduler, bus, pristine=pristine
        )
    elif spec.protocol == "extraction":
        sim, f_eff, violations, decided = _run_extraction(
            spec, system, chaos, rng, scheduler, bus, stop_rule
        )
        network = None
    else:
        sim, f_eff, violations, decided = _run_set_agreement(
            spec, system, chaos, rng, scheduler, bus
        )
        network = None

    if sim_out is not None:
        sim_out.append(sim)
    times = sim.trace.decision_times()
    return ChaosTrialResult(
        protocol=spec.protocol,
        n_processes=spec.n_processes,
        f=f_eff,
        seed=spec.seed,
        lying_prefix=spec.lying_prefix,
        drop_rate=spec.drop_rate,
        faulty=len(sim.pattern.faulty),
        decided=decided,
        ok=decided and not violations,
        violations="; ".join(violations),
        total_steps=sim.time,
        last_decision_time=max(times.values()) if times else -1,
        messages_dropped=getattr(network, "dropped_count", 0),
        messages_duplicated=getattr(network, "duplicated_count", 0),
        messages_delayed=getattr(network, "delayed_count", 0),
        bursts=getattr(scheduler, "bursts_started", 0),
        starvations=getattr(scheduler, "starvations_started", 0),
        metrics=collector.snapshot(),
    )


def _run_set_agreement(spec, system, chaos, rng, scheduler, bus):
    from ..core.f_resilient import make_upsilon_f_set_agreement
    from ..core.set_agreement import make_upsilon_set_agreement
    from ..detectors.upsilon import UpsilonFSpec, UpsilonSpec
    from ..failures.environment import Environment
    from ..mc.properties import AgreementProperty, ValidityProperty
    from ..runtime.simulation import Simulation

    if spec.protocol == "fig1":
        f_eff = system.n
        env = Environment.wait_free(system)
        detector = UpsilonSpec(system)
        protocol = make_upsilon_set_agreement()
    else:
        f_eff = spec.f if spec.f is not None else max(1, system.n - 1)
        env = Environment(system, f_eff)
        detector = UpsilonFSpec(env)
        protocol = make_upsilon_f_set_agreement(f_eff)
    pattern = env.random_pattern(
        rng, max_crash_time=max(chaos.lying_prefix, 60)
    )
    history = detector.sample_chaotic_history(pattern, rng, chaos)
    inputs = {p: f"v{p}" for p in system.pids}
    sim = Simulation(
        system, protocol, inputs=inputs, pattern=pattern, history=history,
        bus=bus,
    )
    sim.run(
        max_steps=spec.max_steps,
        scheduler=scheduler,
        stop_when=Simulation.all_correct_decided,
    )
    violations = _collect(
        sim, [AgreementProperty(f_eff), ValidityProperty(inputs)]
    )
    decided = sim.all_correct_decided()
    if not decided:
        violations.append(
            f"termination: correct processes undecided after "
            f"{sim.time} steps"
        )
    return sim, f_eff, violations, decided


def _run_extraction(spec, system, chaos, rng, scheduler, bus, stop_rule):
    from ..core.extraction import (
        make_extraction_protocol,
        stable_emulated_output,
    )
    from ..core.samples import PhiMap
    from ..detectors.registry import make_detector
    from ..detectors.upsilon import UpsilonFSpec
    from ..failures.environment import Environment
    from ..mc.properties import UpsilonOutputProperty
    from ..runtime.simulation import Simulation

    env = (
        Environment.wait_free(system)
        if spec.f is None
        else Environment(system, spec.f)
    )
    source = make_detector(spec.detector, env)
    pattern = env.random_pattern(
        rng, max_crash_time=max(chaos.lying_prefix, 50)
    )
    history = source.sample_chaotic_history(pattern, rng, chaos)
    phi = PhiMap(source, env)
    sim = Simulation(
        env.system,
        make_extraction_protocol(phi),
        inputs={},
        pattern=pattern,
        history=history,
        bus=bus,
    )
    sim.run(
        max_steps=spec.max_steps,
        scheduler=scheduler,
        stop_when=(
            stop_rule(phi, pattern, history) if stop_rule is not None
            else None
        ),
    )
    violations = _collect(
        sim, [UpsilonOutputProperty(system.pid_set, env.min_correct)]
    )
    outputs = stable_emulated_output(sim, pattern, horizon=spec.max_steps)
    decided = False
    if outputs is not None:
        values = {frozenset(v) for v in outputs.values()}
        if len(values) == 1:
            upsilon = UpsilonFSpec(env)
            decided = upsilon.is_legal_stable_value(
                pattern, next(iter(values))
            )
    if not decided:
        violations.append(
            f"extraction output not stabilized/legal after "
            f"{spec.max_steps} steps"
        )
    return sim, env.f, violations, decided


def _run_abd_converge(spec, system, chaos, rng, scheduler, bus,
                      pristine=False):
    from ..core.converge import ConvergeInstance
    from ..failures.environment import Environment
    from ..failures.pattern import FailurePattern
    from ..mc.properties import (
        ConvergeAgreementProperty,
        ConvergeValidityProperty,
    )
    from ..messaging.abd import AbdRegisters, abd_snapshot_api
    from ..messaging.network import Network
    from ..runtime.ops import Decide
    from ..runtime.simulation import Simulation
    from .network import FaultyNetwork

    n_procs = system.n_processes
    majority_safe = (n_procs - 1) // 2
    f_eff = majority_safe if spec.f is None else min(spec.f, majority_safe)
    f_eff = max(f_eff, 0)
    quorum = n_procs - f_eff
    if f_eff > 0:
        pattern = Environment(system, f_eff).random_pattern(
            rng, max_crash_time=max(chaos.lying_prefix, 60)
        )
    else:
        pattern = FailurePattern.failure_free(system)
    k = max(1, f_eff)
    inputs = {p: f"v{p % k}" for p in system.pids}  # ≤ k distinct: commits

    def protocol(ctx, value):
        abd = AbdRegisters(ctx, quorum=quorum)
        instance = ConvergeInstance(
            ("chaos", "conv"), k, n_procs,
            snapshot_factory=lambda name, cells: abd_snapshot_api(
                abd, name, cells
            ),
        )
        picked, committed = yield from instance.converge(ctx, value)
        yield Decide((picked, committed))
        yield from abd.serve()

    if pristine:
        network = Network(system, seed=spec.seed + 101, max_delay=3)
    else:
        network = FaultyNetwork(
            system,
            seed=spec.seed + 101,
            max_delay=3,
            chaos=chaos,
            quorum=quorum,
            protected=pattern.correct,
        )
    sim = Simulation(
        system, protocol, inputs=inputs, pattern=pattern, network=network,
        bus=bus,
    )
    sim.run(
        max_steps=spec.max_steps,
        scheduler=scheduler,
        stop_when=Simulation.all_correct_decided,
    )
    violations = _collect(
        sim,
        [ConvergeAgreementProperty(k), ConvergeValidityProperty(inputs)],
    )
    decided = sim.all_correct_decided()
    if not decided:
        violations.append(
            f"termination: correct processes undecided after "
            f"{sim.time} steps (quorum={quorum}, "
            f"dropped={getattr(network, 'dropped_count', 0)})"
        )
    return sim, network, f_eff, violations, decided


def _collect(sim, adapters) -> List[str]:
    violations: List[str] = []
    for adapter in adapters:
        reason = adapter.check_run(sim)
        if reason:
            violations.append(f"{adapter.name}: {reason}")
    return violations
