"""Tests for Fig. 3 — extracting Υf from stable non-trivial detectors
(Theorem 10).

Each run checks the emulated ``Υf-output`` variable: after the source
detector's history stabilizes, all correct processes must converge to the
same set, of size at least ``n + 1 − f``, that is not the correct set.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_extraction_trial, run_set_agreement_trial
from repro.core import (
    PhiMap,
    ShiftedPhiMap,
    make_extraction_protocol,
    stable_emulated_output,
)
from repro.core.extraction import (
    ExtractionSettled,
    extraction_stop_rule,
    settle_window,
)
from repro.detectors import (
    EventuallyPerfectSpec,
    OmegaKSpec,
    OmegaSpec,
    ScriptedHistory,
    StableHistory,
    UpsilonFSpec,
    UpsilonSpec,
    omega_n,
)
from repro.failures import Environment, FailurePattern
from repro.runtime import RandomScheduler, Simulation, System


def run_extraction(spec, env, pattern, history, seed=0, shift=0, steps=35_000):
    phi = PhiMap(spec, env)
    if shift:
        phi = ShiftedPhiMap(phi, shift)
    sim = Simulation(
        env.system, make_extraction_protocol(phi), inputs={},
        pattern=pattern, history=history,
    )
    sim.run(max_steps=steps, scheduler=RandomScheduler(seed))
    return sim


def assert_upsilon_f_extracted(sim, env, pattern):
    outputs = stable_emulated_output(sim, pattern)
    assert outputs is not None, "emulated output did not stabilize"
    values = {frozenset(v) for v in outputs.values()}
    assert len(values) == 1, f"correct processes disagree: {outputs}"
    (output,) = values
    upsilon = UpsilonFSpec(env)
    assert upsilon.is_legal_stable_value(pattern, output), (
        f"extracted {sorted(output)} illegal for correct="
        f"{sorted(pattern.correct)}"
    )
    return output


class TestExtractionFromOmega:
    @pytest.mark.parametrize("seed", range(5))
    def test_wait_free(self, system4, seed):
        env = Environment.wait_free(system4)
        spec = OmegaSpec(system4)
        rng = random.Random(seed)
        pattern = FailurePattern.random(system4, rng, max_crash_time=40)
        history = spec.sample_history(pattern, rng, stabilization_time=60)
        sim = run_extraction(spec, env, pattern, history, seed=seed)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        # ϕΩ avoids the stable leader, so the leader is never in the output.
        assert history.stable_value not in output


class TestExtractionFromOmegaN:
    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_complement(self, system4, seed):
        env = Environment.wait_free(system4)
        spec = omega_n(system4)
        rng = random.Random(seed)
        pattern = FailurePattern.random(system4, rng, max_crash_time=40)
        history = spec.sample_history(pattern, rng, stabilization_time=50)
        sim = run_extraction(spec, env, pattern, history, seed=seed)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert output == system4.pid_set - history.stable_value


class TestExtractionFromUpsilonIsIdentity:
    def test_identity(self, system4):
        env = Environment.wait_free(system4)
        spec = UpsilonSpec(system4)
        pattern = FailurePattern.crash_at(system4, {1: 10})
        history = StableHistory(frozenset({0, 1}), stabilization_time=30)
        sim = run_extraction(spec, env, pattern, history, seed=2)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert output == frozenset({0, 1})


class TestExtractionFromEventuallyPerfect:
    @pytest.mark.parametrize("seed", range(4))
    def test_wait_free(self, system4, seed):
        env = Environment.wait_free(system4)
        spec = EventuallyPerfectSpec(system4)
        rng = random.Random(seed + 100)
        pattern = FailurePattern.random(system4, rng, max_crash_time=40)
        history = spec.sample_history(pattern, rng, stabilization_time=60)
        sim = run_extraction(spec, env, pattern, history, seed=seed)
        assert_upsilon_f_extracted(sim, env, pattern)


class TestFResilientEnvironments:
    @pytest.mark.parametrize("f", [1, 2])
    def test_omega_f_sources(self, system4, f):
        env = Environment(system4, f)
        spec = OmegaKSpec(system4, f)
        rng = random.Random(f * 17)
        pattern = env.random_pattern(rng, max_crash_time=30)
        history = spec.sample_history(pattern, rng, stabilization_time=40)
        sim = run_extraction(spec, env, pattern, history, seed=f)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert len(output) >= env.min_correct


class TestBatchObservationPath:
    """w(σ) > 0 exercises the line-15 batch wait of Fig. 3."""

    @pytest.mark.parametrize("shift", [1, 3])
    def test_failure_free_completes_batches(self, system3, shift):
        env = Environment.wait_free(system3)
        spec = OmegaSpec(system3)
        pattern = FailurePattern.failure_free(system3)
        history = StableHistory(0, stabilization_time=20)
        sim = run_extraction(
            spec, env, pattern, history, seed=shift, shift=shift, steps=50_000
        )
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert 0 not in output

    def test_crash_stalls_batches_output_pi(self, system3):
        """With a crashed process, batches never complete; the emulated
        output stays Π — legal, since Π is not the correct set (case (1)
        of the Theorem 10 proof)."""
        env = Environment.wait_free(system3)
        spec = OmegaSpec(system3)
        pattern = FailurePattern.crash_at(system3, {2: 25})
        history = StableHistory(0, stabilization_time=0)
        sim = run_extraction(
            spec, env, pattern, history, seed=9, shift=2, steps=40_000
        )
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert output == system3.pid_set

    def test_peer_done_flag_frees_blocked_observers(self, system3):
        """A process that completed its batches before a crash publishes
        B[i]; late observers adopt S through it rather than Π."""
        env = Environment.wait_free(system3)
        spec = OmegaSpec(system3)
        # Crash late: batches complete first (stabilization at 0).
        pattern = FailurePattern.crash_at(system3, {2: 3_000})
        history = StableHistory(0, stabilization_time=0)
        sim = run_extraction(
            spec, env, pattern, history, seed=10, shift=1, steps=40_000
        )
        outputs = stable_emulated_output(sim, pattern)
        assert outputs is not None
        values = {frozenset(v) for v in outputs.values()}
        assert len(values) == 1


class TestRunnerTrialAPI:
    def test_trial_result_fields(self, system4):
        env = Environment.wait_free(system4)
        result = run_extraction_trial(OmegaSpec(system4), env, seed=1)
        assert result.stabilized and result.legal
        assert result.detector == "Ω"
        assert result.output_settle_time >= 0

    def test_trial_handles_shift(self, system3):
        env = Environment.wait_free(system3)
        result = run_extraction_trial(
            OmegaSpec(system3), env, seed=2, shift=1, max_steps=60_000
        )
        assert result.stabilized and result.legal


def _verdict(result):
    return (result.stabilized, result.output, result.legal,
            result.output_settle_time)


def _early_and_full(spec, env, **params):
    early = run_extraction_trial(spec, env, **params)
    full = run_extraction_trial(spec, env, stop_rule=None, **params)
    assert full.total_steps == params.get("max_steps", 40_000)
    return early, full


class TestEarlyStop:
    """The stop rule cuts runs short without changing any verdict."""

    @pytest.mark.parametrize("n_procs", [3, 4])
    @pytest.mark.parametrize(
        "make_spec", [OmegaSpec, omega_n, EventuallyPerfectSpec, UpsilonSpec],
        ids=["omega", "omega_n", "diamond_p", "upsilon"],
    )
    def test_f3_grid_verdict_matches_full_horizon(self, n_procs, make_spec):
        system = System(n_procs)
        env = Environment.wait_free(system)
        for seed in range(4):
            early, full = _early_and_full(
                make_spec(system), env, seed=seed, max_steps=6_000
            )
            assert _verdict(early) == _verdict(full)
            assert early.stabilized and early.legal
            assert early.total_steps < 6_000

    @pytest.mark.parametrize("crashes", [{}, {2: 10}, {2: 400}, {2: 3_000}],
                             ids=["failure-free", "early-crash",
                                  "mid-crash", "late-crash"])
    def test_shift_path_verdict_matches_full_horizon(self, system3, crashes):
        env = Environment.wait_free(system3)
        pattern = FailurePattern.crash_at(system3, crashes)
        for seed in range(4):
            early, full = _early_and_full(
                OmegaSpec(system3), env, seed=seed, shift=2,
                pattern=pattern, max_steps=8_000,
            )
            assert _verdict(early) == _verdict(full)
            assert early.total_steps <= 8_000

    def test_stalled_batches_stop_early(self, system3):
        """w > 0 with an early crash: batches stall, the output stays Π,
        and the rule proves the stall permanent."""
        env = Environment.wait_free(system3)
        pattern = FailurePattern.crash_at(system3, {2: 10})
        early, full = _early_and_full(
            OmegaSpec(system3), env, seed=1, shift=2, pattern=pattern,
            max_steps=8_000,
        )
        assert early.output == system3.pid_set == full.output
        assert early.total_steps < 1_000

    def test_stops_only_after_the_settle_window(self, system4):
        env = Environment.wait_free(system4)
        result = run_extraction_trial(OmegaSpec(system4), env, seed=3)
        assert result.output_settle_time < result.total_steps < 40_000
        assert result.total_steps - result.output_settle_time \
            >= settle_window(4)

    def test_scripted_history_runs_to_the_cap(self, system3):
        env = Environment.wait_free(system3)
        pattern = FailurePattern.failure_free(system3)
        history = ScriptedHistory({}, default=0)
        assert history.stable_from is None
        phi = PhiMap(OmegaSpec(system3), env)
        rule = extraction_stop_rule(phi, pattern, history)
        assert rule is None
        sim = Simulation(system3, make_extraction_protocol(phi), inputs={},
                         pattern=pattern, history=history)
        sim.run(max_steps=2_000, scheduler=RandomScheduler(0),
                stop_when=rule)
        assert sim.time == 2_000
        with pytest.raises(ValueError):
            ExtractionSettled(phi, pattern, history)

    def test_stable_from_declarations(self):
        assert StableHistory(0, 60, noise=lambda p, t: 1).stable_from == 60
        assert StableHistory(0, 60).stable_from == 0

    def test_horizon_sets_the_trailing_window(self, system3):
        env = Environment.wait_free(system3)
        pattern = FailurePattern.failure_free(system3)
        history = StableHistory(0, 0)
        sim = run_extraction(OmegaSpec(system3), env, pattern, history,
                             steps=400)
        settle = max(sim.trace.emit_stabilization_time(p)
                     for p in pattern.correct)
        assert 0 < settle <= 300
        assert stable_emulated_output(sim, pattern) is not None
        assert stable_emulated_output(sim, pattern, horizon=40_000) \
            == stable_emulated_output(sim, pattern)
        # a horizon whose trailing quarter starts before the settle time
        assert stable_emulated_output(
            sim, pattern, horizon=int(settle / 0.75) - 1
        ) is None

    def test_set_agreement_trial_is_untouched(self):
        """Set agreement never passes through the stop rule: its step
        count and metrics snapshot are what they were before it."""
        result = run_set_agreement_trial(System(4), 3, seed=3,
                                         stabilization_time=100)
        assert result.total_steps == 27
        counters = result.metrics["counters"]
        assert counters["steps_total"] == {"0": 7, "1": 6, "2": 7, "3": 7}
        assert counters["memory_ops"] == {
            "Read": 3, "SnapshotScan": 8, "SnapshotUpdate": 8, "Write": 1,
        }
        assert result.metrics["gauges"]["decision_time"] == {
            "0": 22, "1": 14, "2": 26, "3": 17,
        }


@given(
    n_procs=st.integers(3, 4),
    seed=st.integers(0, 50_000),
    detector=st.sampled_from(["omega", "omega_n", "diamond_p", "upsilon"]),
)
@settings(max_examples=20, deadline=None)
def test_extraction_hypothesis(n_procs, seed, detector):
    system = System(n_procs)
    env = Environment.wait_free(system)
    spec = {
        "omega": OmegaSpec(system),
        "omega_n": omega_n(system),
        "diamond_p": EventuallyPerfectSpec(system),
        "upsilon": UpsilonSpec(system),
    }[detector]
    rng = random.Random(seed)
    pattern = FailurePattern.random(system, rng, max_crash_time=30)
    history = spec.sample_history(pattern, rng, stabilization_time=40)
    sim = run_extraction(spec, env, pattern, history, seed=seed, steps=45_000)
    assert_upsilon_f_extracted(sim, env, pattern)
