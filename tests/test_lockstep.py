"""Unit tests for the lockstep study kernel and its columnar machinery."""

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveSuccessChaser,
    BatchArrivals,
    ComposedAdversary,
    RandomFractionJamming,
    ReactiveJamming,
    UniformRandomArrivals,
)
from repro.core import ChenJiangZhengProtocol, GlobalClockVariant, cjz_factory
from repro.errors import ConfigurationError
from repro.protocols import (
    PolynomialBackoff,
    SawtoothBackoff,
    SlottedAloha,
    WindowedBinaryExponentialBackoff,
    make_factory,
)
from repro.protocols.base import Protocol, grow_flat_column
from repro.rng import NodeStreamPool, lockstep_streams_ok
from repro.sim import SimulatorConfig, TrialRunner, run_trials
from repro.sim.backends import LockstepStudyKernel


class TestNodeStreamPool:
    """The pool replays default_rng streams bit for bit."""

    def _pool_and_references(self, count=3):
        sequences = [
            np.random.SeedSequence(99, spawn_key=(i, 0)) for i in range(count)
        ]
        pool = NodeStreamPool(count)
        pool.seed_rows(
            np.arange(count),
            np.stack([s.generate_state(4, np.uint64) for s in sequences]),
        )
        return pool, [np.random.default_rng(s) for s in sequences]

    def test_streams_verified_on_this_numpy(self):
        assert lockstep_streams_ok()

    def test_doubles_match_generator_random(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        for _ in range(50):
            assert np.array_equal(
                pool.doubles(rows), np.array([g.random() for g in refs])
            )

    def test_pow2_batch_matches_bounded_integers(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        for k, count in [(1, 2), (3, 5), (7, 4), (20, 3)]:
            mine = pool.pow2_batch(rows, k, count)
            theirs = np.stack(
                [g.integers(1 << k, 2 << k, size=count) for g in refs], axis=1
            )
            assert np.array_equal(mine, theirs)

    def test_bounded_u32_matches_integers(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        for bound in [1, 2, 3, 10, 1000, 1 << 30]:
            mine = pool.bounded_u32(rows, np.uint64(bound - 1))
            theirs = np.array([g.integers(0, bound) for g in refs])
            assert np.array_equal(mine.astype(np.int64), theirs)

    def test_interleaved_kinds_share_the_buffer_correctly(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        # bounded (buffers the high half) -> double (skips the buffer) ->
        # bounded (consumes the buffered half).
        assert np.array_equal(
            pool.bounded_u32(rows, np.uint64(6)).astype(np.int64),
            np.array([g.integers(0, 7) for g in refs]),
        )
        assert np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in refs])
        )
        assert np.array_equal(
            pool.bounded_u32(rows, np.uint64(12)).astype(np.int64),
            np.array([g.integers(0, 13) for g in refs]),
        )

    def test_bounded_scalar_wide_ranges(self):
        pool, refs = self._pool_and_references()
        for bound in [5, 1 << 32, (1 << 34) + 7, 1 << 63]:
            for row, generator in enumerate(refs):
                assert pool.bounded_scalar(row, bound - 1) == int(
                    generator.integers(0, bound)
                )

    def test_zero_range_consumes_nothing(self):
        pool, refs = self._pool_and_references()
        rows = np.arange(3)
        assert np.array_equal(
            pool.bounded_u32(rows, np.uint64(0)), np.zeros(3, dtype=np.uint64)
        )
        assert np.array_equal(
            pool.doubles(rows), np.array([g.random() for g in refs])
        )


class TestGrowFlatColumn:
    def test_preserves_trial_blocks(self):
        column = np.arange(6, dtype=np.int64)  # 2 trials x capacity 3
        grown = grow_flat_column(column, trials=2, old_capacity=3, new_capacity=5, fill=-1)
        assert grown.tolist() == [0, 1, 2, -1, -1, 3, 4, 5, -1, -1]

    def test_two_dimensional_columns(self):
        column = np.arange(8, dtype=np.int64).reshape(4, 2)  # 2 trials x cap 2
        grown = grow_flat_column(column, trials=2, old_capacity=2, new_capacity=3, fill=0)
        assert grown.shape == (6, 2)
        assert grown[2].tolist() == [0, 0]
        assert grown[3].tolist() == [4, 5]


def batch_jam_factory():
    return ComposedAdversary(BatchArrivals(6), RandomFractionJamming(0.25))


class _ProgramlessAloha(Protocol):
    """ALOHA that opts out of both the vector contract and a lockstep program."""

    name = "programless-aloha"

    def __init__(self, probability: float = 0.2) -> None:
        self._p = probability
        self._rng = None

    def on_arrival(self, slot, rng):
        self._rng = rng

    def wants_to_broadcast(self, slot):
        return bool(self._rng.random() < self._p)

    def on_feedback(self, slot, feedback, broadcast, success_was_own):
        return None


class TestEligibility:
    def test_program_less_protocol_rejected_explicitly(self):
        with pytest.raises(ConfigurationError, match="lockstep"):
            run_trials(
                protocol_factory=make_factory(_ProgramlessAloha, 0.2),
                adversary_factory=batch_jam_factory,
                horizon=50,
                trials=2,
                seed=1,
                backend="lockstep",
            )

    def test_keep_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="keep_trace"):
            run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=batch_jam_factory,
                horizon=50,
                trials=2,
                seed=1,
                backend="lockstep",
                keep_trace=True,
            )

    def test_subclass_opts_out_of_the_program(self):
        class Variant(ChenJiangZhengProtocol):
            pass

        assert Variant().lockstep_program() is None
        assert ChenJiangZhengProtocol().lockstep_program() is not None
        assert GlobalClockVariant().lockstep_program() is not None

    def test_windowed_family_programs_exist(self):
        assert WindowedBinaryExponentialBackoff().lockstep_program() is not None
        assert SawtoothBackoff().lockstep_program() is not None
        assert PolynomialBackoff().lockstep_program() is not None
        assert _ProgramlessAloha(0.2).lockstep_program() is None

    def test_kernel_reports_reason(self):
        kernel = LockstepStudyKernel()
        reason = kernel.unsupported_reason(
            make_factory(_ProgramlessAloha, 0.2),
            batch_jam_factory,
            SimulatorConfig(horizon=10),
        )
        assert "lockstep program" in reason
        assert kernel.supports_study(
            cjz_factory(), batch_jam_factory, SimulatorConfig(horizon=10)
        )


class TestAutoLadder:
    def test_auto_prefers_lockstep_for_feedback_protocols(self):
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                BatchArrivals(12), RandomFractionJamming(0.25)
            ),
            horizon=80,
            trials=3,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "lockstep" for r in study)

    def test_auto_keeps_batched_study_for_vector_protocols(self):
        study = run_trials(
            protocol_factory=make_factory(SlottedAloha, 0.2),
            adversary_factory=batch_jam_factory,
            horizon=80,
            trials=3,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "batched-study" for r in study)

    def test_auto_serves_adaptive_adversaries_via_lockstep(self):
        # Adaptive adversaries hide their arrival shape, so auto escalates
        # on the trial count alone.
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: AdaptiveSuccessChaser(
                jam_fraction=0.2, total_arrival_budget=12
            ),
            horizon=120,
            trials=8,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "lockstep" for r in study)

    def test_auto_keeps_small_sparse_studies_per_trial(self):
        # Two trials of a thin spread workload carry too little concurrent
        # population for the lockstep tier to pay off.
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                UniformRandomArrivals(10, (1, 60)), RandomFractionJamming(0.2)
            ),
            horizon=120,
            trials=2,
            seed=5,
            backend="auto",
        )
        assert all(r.backend == "reference" for r in study)
        # An explicit request still runs lockstep.
        explicit = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                UniformRandomArrivals(10, (1, 60)), RandomFractionJamming(0.2)
            ),
            horizon=120,
            trials=2,
            seed=5,
            backend="lockstep",
        )
        assert all(r.backend == "lockstep" for r in explicit)


class TestKernelBehaviour:
    def test_dynamic_capacity_growth_stays_identical(self):
        # The chaser's arrivals are revealed slot by slot; a budget well past
        # the initial per-trial capacity forces the rectangular layout to
        # grow and re-map mid-run.
        def adversary():
            return AdaptiveSuccessChaser(
                jam_fraction=0.1,
                arrival_budget_per_success=3,
                total_arrival_budget=60,
                jam_burst=2,
                seed_arrivals=4,
            )

        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=adversary,
            horizon=500,
            trials=3,
            seed=11,
        )
        reference = run_trials(backend="reference", **kwargs)
        lockstep = run_trials(backend="lockstep", **kwargs)
        assert max(r.total_arrivals for r in lockstep) > 16
        for a, b in zip(reference, lockstep):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats

    def test_max_nodes_enforced_like_reference(self):
        config = SimulatorConfig(horizon=40, max_nodes=10)

        def runner(backend):
            return TrialRunner(
                cjz_factory(),
                lambda: ComposedAdversary(
                    BatchArrivals(30), RandomFractionJamming(0.0)
                ),
                config,
                backend=backend,
            )

        with pytest.raises(ConfigurationError, match="max_nodes=10 at slot 1"):
            runner("reference").run(trials=2, seed=3)
        with pytest.raises(ConfigurationError, match="max_nodes=10 at slot 1"):
            runner("lockstep").run(trials=2, seed=3)

    def test_max_nodes_enforced_on_the_dynamic_path(self):
        config = SimulatorConfig(horizon=200, max_nodes=12)
        runner = TrialRunner(
            cjz_factory(),
            lambda: AdaptiveSuccessChaser(
                jam_fraction=0.0,
                arrival_budget_per_success=4,
                seed_arrivals=6,
            ),
            config,
            backend="lockstep",
        )
        with pytest.raises(ConfigurationError, match="max_nodes=12"):
            runner.run(trials=2, seed=3)

    def test_results_report_lockstep_backend_and_adversary_names(self):
        study = run_trials(
            protocol_factory=cjz_factory(),
            adversary_factory=lambda: ComposedAdversary(
                UniformRandomArrivals(8, (1, 40)), ReactiveJamming(0.2, burst=4)
            ),
            horizon=90,
            trials=2,
            seed=9,
            backend="lockstep",
        )
        for result in study:
            assert result.backend == "lockstep"
            assert "reactive-jam" in result.adversary_name
            assert result.protocol_name == "chen-jiang-zheng"

    def test_consumed_strategies_are_rebuilt_for_the_generic_driver(self):
        # An arrival strategy that consumes randomness inside precompile()
        # and then bails leaves the reactive builder's instances consumed;
        # the generic per-slot fallback must rebuild fresh adversaries (the
        # rebuild is stream-identical) instead of reusing them.
        from repro.adversary.base import ArrivalStrategy

        class HalfBakedArrivals(ArrivalStrategy):
            name = "half-baked"
            adaptive = False

            def setup(self, rng, horizon=None):
                self._rng = rng

            def arrivals_for_slot(self, slot):
                return int(self._rng.random() < 0.08)

            def precompile(self, horizon):
                self._rng.random()  # consumes, then gives up
                return None

        def adversary():
            return ComposedAdversary(
                HalfBakedArrivals(), ReactiveJamming(0.2, burst=3)
            )

        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=adversary,
            horizon=120,
            trials=3,
            seed=3,
        )
        reference = run_trials(backend="reference", **kwargs)
        lockstep = run_trials(backend="lockstep", **kwargs)
        for a, b in zip(reference, lockstep):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats

    def test_trial_blocking_stays_identical(self, monkeypatch):
        # Oversized studies run in contiguous trial blocks (bounded peak
        # memory); force two-trial blocks and require bit-identity.
        import repro.sim.backends.lockstep as lockstep_module

        monkeypatch.setattr(lockstep_module, "_BLOCK_TRIAL_SLOTS", 302)
        kwargs = dict(
            protocol_factory=cjz_factory(),
            adversary_factory=batch_jam_factory,
            horizon=150,
            trials=7,
            seed=5,
        )
        lockstep = run_trials(backend="lockstep", **kwargs)
        reference = run_trials(backend="reference", **kwargs)
        assert all(r.backend == "lockstep" for r in lockstep)
        for a, b in zip(reference, lockstep):
            assert a.summary == b.summary
            assert a.node_stats == b.node_stats
            assert a.prefix_successes == b.prefix_successes

    def test_pipeline_reduction_runs_on_lockstep(self):
        from repro.metrics.pipeline import MetricPipeline, SuccessTimelineReducer

        def study(backend):
            return run_trials(
                protocol_factory=cjz_factory(),
                adversary_factory=batch_jam_factory,
                horizon=100,
                trials=3,
                seed=4,
                backend=backend,
                pipeline=MetricPipeline([SuccessTimelineReducer()]),
            )

        assert study("lockstep").metrics() == study("reference").metrics()
