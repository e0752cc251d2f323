"""The age-table and two-channel lockstep programs, and the one study ladder.

Every registered vector-eligible protocol and the two-channel protocol run
on the lockstep kernel against the adaptive workloads the array kernels
cannot serve (the lock-convoy scenario, reactive jamming) and against an
oblivious schedule under an explicit ``backend="lockstep"``; each study must
equal the serial reference in counters and summary rows.  The ladder tests
pin the ``auto`` rule: which rung :meth:`TrialRunner.plan_ladder` selects,
that execution follows the plan, and that fusion follows the ladder.
"""

import pytest

from repro.adversary import (
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
    ReactiveJamming,
    UniformRandomArrivals,
)
from repro.core import cjz_factory
from repro.protocols import ProbabilityBackoff, SlottedAloha, make_factory
from repro.sim import SimulatorConfig, TrialRunner, run_trials
from repro.sim.backends import batched as batched_module
from repro.sim.backends import vectorized as vectorized_module
from repro.sim.backends.compiled import interpreter_mode
from repro.sim.backends.fused import fusion_key
from repro.spec import PROTOCOLS, AdversarySpec, ProtocolSpec, StudySpec
from repro.workloads import STANDARD_SCENARIOS, WorkloadSpec, build_adversary_factory

SEEDS = (1, 7, 20210219)

TIMING_FIELDS = ("mean_wall_time_s", "mean_slots_per_s")

VECTOR_KINDS = sorted(
    kind for kind in PROTOCOLS.kinds() if ProtocolSpec(kind).build()().vector_eligible
)


def lock_convoy():
    """The lock-convoy scenario (batch + reactive jamming), scaled down."""
    spec = STANDARD_SCENARIOS["lock-convoy"].spec
    return build_adversary_factory(
        WorkloadSpec(
            horizon=400,
            arrival_kind=spec.arrival_kind,
            arrival_params={"count": 24},
            jamming_kind=spec.jamming_kind,
            jamming_params=spec.jamming_params,
        )
    )


def reactive_jam():
    return ComposedAdversary(
        UniformRandomArrivals(20, (1, 150)), ReactiveJamming(0.2, burst=5)
    )


def oblivious():
    return ComposedAdversary(BatchArrivals(16), RandomFractionJamming(0.25))


ADVERSARIES = {
    "lock-convoy": lock_convoy(),
    "reactive-jam": reactive_jam,
    "oblivious": oblivious,
}


def assert_identical(reference, lockstep):
    assert len(reference) == len(lockstep)
    for ours, theirs in zip(reference, lockstep):
        assert ours.summary == theirs.summary
        assert ours.prefix_arrivals == theirs.prefix_arrivals
        assert ours.prefix_successes == theirs.prefix_successes
        assert ours.prefix_jammed == theirs.prefix_jammed
        assert ours.prefix_active == theirs.prefix_active
        assert ours.node_stats == theirs.node_stats
    rows = [study.summary_row() for study in (reference, lockstep)]
    for row in rows:
        for field in TIMING_FIELDS:
            row.pop(field)
    assert rows[0] == rows[1]


def study(factory, adversary_factory, backend, seed, trials=3, horizon=400):
    return run_trials(
        protocol_factory=factory,
        adversary_factory=adversary_factory,
        horizon=horizon,
        trials=trials,
        seed=seed,
        backend=backend,
    )


def test_registry_has_vector_eligible_protocols():
    assert {"slotted-aloha", "probability-backoff", "log-uniform-fixed"} <= set(
        VECTOR_KINDS
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_age_table_program_matches_reference(kind, adversary, seed):
    factory = ProtocolSpec(kind).build()
    assert factory().lockstep_program() is not None
    adversary_factory = ADVERSARIES[adversary]
    lockstep = study(factory, adversary_factory, "lockstep", seed)
    assert {r.backend for r in lockstep} == {"lockstep"}
    assert_identical(study(factory, adversary_factory, "reference", seed), lockstep)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_two_channel_program_matches_reference(adversary, seed):
    factory = ProtocolSpec("two-channel-no-jamming").build()
    adversary_factory = ADVERSARIES[adversary]
    lockstep = study(factory, adversary_factory, "lockstep", seed)
    assert {r.backend for r in lockstep} == {"lockstep"}
    assert_identical(study(factory, adversary_factory, "reference", seed), lockstep)


def test_age_table_program_grows_with_adaptive_arrivals():
    from repro.adversary import AdaptiveSuccessChaser

    def chaser():
        return AdaptiveSuccessChaser(
            jam_fraction=0.1, arrival_budget_per_success=3, total_arrival_budget=60
        )

    factory = make_factory(SlottedAloha, 0.1)
    assert_identical(
        study(factory, chaser, "reference", 3), study(factory, chaser, "lockstep", 3)
    )


# ------------------------------------------------------------------- ladder


def lockstep_rung():
    return "lockstep-jit" if interpreter_mode() != "off" else "lockstep"


def selected(runner, trials):
    rows = runner.explain_backend(trials)
    assert rows == [rung.as_row() for rung in runner.plan_ladder(trials)]
    chosen = [row["backend"] for row in rows if row["status"] == "selected"]
    assert len(chosen) == 1
    return chosen[0]


def spread_cjz_runner():
    return TrialRunner(
        cjz_factory(),
        lambda: ComposedAdversary(
            UniformRandomArrivals(20, (1, 300)), RandomFractionJamming(0.25)
        ),
        SimulatorConfig(horizon=400),
    )


class TestLadder:
    def test_five_trial_spread_cjz_study_picks_lockstep(self):
        runner = spread_cjz_runner()
        assert selected(runner, 5) == lockstep_rung()
        assert {r.backend for r in runner.run(5, seed=4)} == {lockstep_rung()}

    def test_two_trial_spread_cjz_study_stays_per_trial(self):
        assert selected(spread_cjz_runner(), 2) == "per-trial (auto)"

    def test_interpreter_off_plans_numpy_lockstep(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        runner = spread_cjz_runner()
        assert selected(runner, 5) == "lockstep"
        rows = {row["backend"]: row for row in runner.explain_backend(5)}
        assert rows["lockstep-jit"]["status"] == "skipped"
        assert "interpreter is off" in rows["lockstep-jit"]["reason"]

    def test_adaptive_vector_study_picks_lockstep(self):
        runner = TrialRunner(
            make_factory(SlottedAloha, 0.05), lock_convoy(), SimulatorConfig(horizon=400)
        )
        assert selected(runner, 5) == "lockstep"
        study = runner.run(5, seed=2)
        assert {r.backend for r in study} == {"lockstep"}
        assert study.health.clean

    def test_e5_like_oblivious_study_picks_vectorized_after_batched_bail(
        self, monkeypatch
    ):
        # A batch too large for one batched-study block but well within the
        # vectorized kernel's matrix cap, as E5's 65,536-slot study is.
        monkeypatch.setattr(batched_module, "_MAX_BLOCK_ELEMENTS", 1000)
        runner = TrialRunner(
            make_factory(ProbabilityBackoff, 1.0),
            lambda: ComposedAdversary(BatchArrivals(32), RandomFractionJamming(0.0)),
            SimulatorConfig(horizon=200, stop_when_drained=True),
        )
        rows = {row["backend"]: row for row in runner.explain_backend(5)}
        assert rows["batched-study"]["status"] == "selected"
        assert rows["lockstep"]["status"] == "skipped"
        assert rows["per-trial (auto)"]["status"] == "eligible"
        study = runner.run(5, seed=3)
        assert {r.backend for r in study} == {"vectorized"}
        assert [e.site for e in study.health.demotions] == ["batched-study"]

    def test_study_over_the_vectorized_cap_picks_lockstep(self, monkeypatch):
        monkeypatch.setattr(batched_module, "_MAX_BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(vectorized_module, "_MAX_MATRIX_BYTES", 1000)
        factory = make_factory(ProbabilityBackoff, 1.0)

        def adversary():
            return ComposedAdversary(BatchArrivals(32), RandomFractionJamming(0.1))

        runner = TrialRunner(factory, adversary, SimulatorConfig(horizon=200))
        rows = {row["backend"]: row for row in runner.explain_backend(5)}
        assert rows["batched-study"]["status"] == "selected"
        assert rows["lockstep"]["status"] == "eligible"
        study = runner.run(5, seed=3)
        assert {r.backend for r in study} == {"lockstep"}
        reference = run_trials(
            protocol_factory=factory,
            adversary_factory=adversary,
            horizon=200,
            trials=5,
            seed=3,
            backend="reference",
        )
        assert [r.summary for r in study] == [r.summary for r in reference]
        assert [r.node_stats for r in study] == [r.node_stats for r in reference]


class TestFusionFollowsLadder:
    def spec(self, adversary, backend="auto"):
        return StudySpec(
            protocol=ProtocolSpec("slotted-aloha", {"probability": 0.1}),
            adversary=adversary,
            horizon=256,
            trials=2,
            seed=1,
            backend=backend,
        )

    def test_oblivious_vector_study_does_not_fuse(self):
        adversary = AdversarySpec.batch(8, jam_fraction=0.2)
        assert fusion_key(self.spec(adversary)) is None
        assert fusion_key(self.spec(adversary, backend="batched-study")) is None

    def test_pinned_lockstep_fuses(self):
        adversary = AdversarySpec.batch(8, jam_fraction=0.2)
        assert fusion_key(self.spec(adversary, backend="lockstep")) is not None

    def test_adaptive_vector_study_fuses(self):
        adversary = STANDARD_SCENARIOS["lock-convoy"].adversary_spec()
        assert fusion_key(self.spec(adversary)) is not None
