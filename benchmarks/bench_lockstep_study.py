"""Micro-benchmarks of the lockstep study kernel on the paper's own protocol.

The CJZ protocol is feedback-driven, so the batched/vectorized array kernels
cannot run it — before the lockstep kernel its studies were stuck on the
per-node reference loop.  These benchmarks track the lockstep tier on
e01/e03-style CJZ studies and assert a ≥5x speedup floor over reference
(the committed ``BENCH_*.json`` records the full figure; the floor only
guards against collapses on noisy runners).  The same floor covers the
age-table program on E8's slowest study shape: slotted ALOHA against the
adaptive lock-convoy jammer, which the array kernels cannot serve either.
"""

from __future__ import annotations

import time

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
    ReactiveJamming,
    UniformRandomArrivals,
)
from repro.core import cjz_factory
from repro.protocols import SlottedAloha, make_factory
from repro.sim import run_trials
from repro.workloads import STANDARD_SCENARIOS, WorkloadSpec, build_adversary_factory

TRIALS = 40
HORIZON = 256
NODES = 32


def _batch_jam_study(backend: str, trials: int = TRIALS):
    """e01 miniature: batch arrivals under 25% random jamming."""
    return run_trials(
        protocol_factory=cjz_factory(),
        adversary_factory=lambda: ComposedAdversary(
            BatchArrivals(NODES), RandomFractionJamming(0.25)
        ),
        horizon=HORIZON,
        trials=trials,
        seed=1,
        backend=backend,
    )


def _reactive_study(backend: str, trials: int = TRIALS):
    """e03 miniature: spread arrivals against the adaptive reactive jammer."""
    return run_trials(
        protocol_factory=cjz_factory(),
        adversary_factory=lambda: ComposedAdversary(
            UniformRandomArrivals(NODES, (1, HORIZON // 4)),
            ReactiveJamming(0.25, burst=8),
        ),
        horizon=HORIZON,
        trials=trials,
        seed=1,
        backend=backend,
    )


def _aloha_lock_convoy_study(backend: str, trials: int = 5):
    """e08 miniature: ALOHA(0.05) in the lock-convoy scenario (batch arrivals,
    reactive jamming after each grant), with E8's quick-scale batch of 192
    over a quarter of its horizon."""
    scenario = STANDARD_SCENARIOS["lock-convoy"].spec
    workload = WorkloadSpec(
        horizon=2048,
        arrival_kind=scenario.arrival_kind,
        arrival_params={"count": 192},
        jamming_kind=scenario.jamming_kind,
        jamming_params=scenario.jamming_params,
    )
    return run_trials(
        protocol_factory=make_factory(SlottedAloha, 0.05),
        adversary_factory=build_adversary_factory(workload),
        horizon=workload.horizon,
        trials=trials,
        seed=1,
        backend=backend,
    )


def test_study_lockstep_backend(benchmark):
    study = benchmark(lambda: _batch_jam_study("lockstep"))
    assert all(result.backend == "lockstep" for result in study)


def test_study_lockstep_reactive_backend(benchmark):
    study = benchmark(lambda: _reactive_study("lockstep"))
    assert all(result.backend == "lockstep" for result in study)


def _per_trial_best(run, backend: str, trials: int, repeats: int = 3) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        run(backend, trials=trials)
        timings.append(time.perf_counter() - start)
    return min(timings) / trials


def test_lockstep_speedup_floor_batch_jam():
    """Acceptance: lockstep runs e01's CJZ study ≥5x faster than reference."""
    _batch_jam_study("lockstep", trials=4)  # warm-up (RNG self-checks)
    _batch_jam_study("reference", trials=2)
    reference = _per_trial_best(_batch_jam_study, "reference", trials=4)
    lockstep = _per_trial_best(_batch_jam_study, "lockstep", trials=TRIALS)
    speedup = reference / lockstep
    assert speedup >= 5.0, (
        f"lockstep speedup {speedup:.1f}x below the 5x acceptance floor"
    )


def test_lockstep_speedup_floor_reactive():
    """The adaptive-jammer path must also clear the 5x floor."""
    _reactive_study("lockstep", trials=4)
    _reactive_study("reference", trials=2)
    reference = _per_trial_best(_reactive_study, "reference", trials=4)
    lockstep = _per_trial_best(_reactive_study, "lockstep", trials=TRIALS)
    speedup = reference / lockstep
    assert speedup >= 5.0, (
        f"lockstep reactive speedup {speedup:.1f}x below the 5x floor"
    )


def test_lockstep_matches_reference_results():
    reference = _batch_jam_study("reference", trials=6)
    lockstep = _batch_jam_study("lockstep", trials=6)
    assert [r.summary for r in reference] == [r.summary for r in lockstep]
    assert [r.node_stats for r in reference] == [r.node_stats for r in lockstep]


def test_age_table_speedup_floor_aloha_lock_convoy():
    """The age-table program runs E8's ALOHA/lock-convoy shape ≥5x faster
    than reference at 5 trials, with identical results."""
    _aloha_lock_convoy_study("lockstep", trials=1)  # warm-up (RNG self-checks)
    start = time.perf_counter()
    reference_study = _aloha_lock_convoy_study("reference")
    reference = time.perf_counter() - start
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        lockstep_study = _aloha_lock_convoy_study("lockstep")
        timings.append(time.perf_counter() - start)
    assert all(result.backend == "lockstep" for result in lockstep_study)
    assert [r.summary for r in reference_study] == [
        r.summary for r in lockstep_study
    ]
    assert [r.node_stats for r in reference_study] == [
        r.node_stats for r in lockstep_study
    ]
    speedup = reference / min(timings)
    assert speedup >= 5.0, (
        f"age-table lockstep speedup {speedup:.1f}x below the 5x floor"
    )
