"""The Chen–Jiang–Zheng three-phase contention-resolution protocol.

A node runs this algorithm from arrival until its message is delivered:

* **Phase 1 (SYNCHRONIZE).**  Arriving at slot ``l0``, the node runs
  ``(f/a)``-backoff on the virtual channel with the parity of ``l0`` until it
  hears a success in *any* slot ``l1`` (on either channel).  The node cannot
  simply listen, because it might be alone in the system.

* **Phase 2 (WAIT_CONTROL).**  Let ``α`` be the channel containing ``l1`` (the
  node's data channel).  The node runs ``(f/a)``-backoff on the other channel
  ``ᾱ`` starting from slot ``l1 + 1`` until it hears a success on ``ᾱ`` in
  some slot ``l2``.  That success synchronizes every node currently in Phase 2
  or Phase 3.

* **Phase 3 (BATCH).**  With anchor ``l3`` (initially ``l2``), the node runs
  ``h_ctrl``-batch on the channel with the parity of ``l3 + 1`` (the control
  channel) and ``h_data``-batch on the channel with the parity of ``l3 + 2``
  (the data channel).  When a success is heard on the control channel in slot
  ``l3'``, the node sets ``l3 = l3'`` and restarts Phase 3 — which, because
  the new anchor lies on the old control channel, automatically swaps the data
  and control roles.

A node halts as soon as its own message is transmitted (the simulator removes
it), so the protocol does not need an explicit "done" state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..channel.virtual import VirtualChannelView
from ..protocols.base import (
    LOCKSTEP_SENTINEL,
    OP_CJZ,
    CompiledProgramTables,
    LockstepProgram,
    Protocol,
    grow_flat_column,
    make_factory,
)
from ..types import ChannelParity, Feedback
from .parameters import AlgorithmParameters
from .phases import Phase
from .subroutines import HBackoff, HBatch

__all__ = [
    "CJZLockstepProgram",
    "ChenJiangZhengProtocol",
    "GlobalClockVariant",
    "cjz_factory",
]


class ChenJiangZhengProtocol(Protocol):
    """The paper's algorithm, parameterized by the jamming budget function ``g``."""

    name = "chen-jiang-zheng"
    spec_kind = "cjz"

    def __init__(self, parameters: Optional[AlgorithmParameters] = None) -> None:
        self._params = parameters or AlgorithmParameters.from_g()
        self._rng: Optional[np.random.Generator] = None
        self._phase = Phase.SYNCHRONIZE
        # Phase 1 state
        self._phase1_view: Optional[VirtualChannelView] = None
        self._phase1_backoff: Optional[HBackoff] = None
        # Phase 2 state
        self._phase2_view: Optional[VirtualChannelView] = None
        self._phase2_backoff: Optional[HBackoff] = None
        # Phase 3 state
        self._ctrl_view: Optional[VirtualChannelView] = None
        self._data_view: Optional[VirtualChannelView] = None
        self._ctrl_batch: Optional[HBatch] = None
        self._data_batch: Optional[HBatch] = None
        self._phase3_restarts = 0

    # ------------------------------------------------------------------ state

    @property
    def parameters(self) -> AlgorithmParameters:
        return self._params

    @property
    def phase(self) -> Phase:
        return self._phase

    @property
    def phase3_restarts(self) -> int:
        return self._phase3_restarts

    def spec_params(self) -> dict:
        return self._params.to_spec_params()

    @property
    def control_parity(self) -> Optional[ChannelParity]:
        """Parity of the node's current control channel (Phase 2 and 3 only)."""
        if self._phase is Phase.WAIT_CONTROL and self._phase2_view is not None:
            return self._phase2_view.parity
        if self._phase is Phase.BATCH and self._ctrl_view is not None:
            return self._ctrl_view.parity
        return None

    # --------------------------------------------------------------- protocol

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        self._rng = rng
        self._phase = Phase.SYNCHRONIZE
        self._phase1_view = VirtualChannelView(anchor_slot=slot, same_parity=True)
        self._phase1_backoff = HBackoff(self._params.backoff_budget, rng)

    def _start_phase2(self, success_slot: int) -> None:
        """Enter Phase 2 after hearing the first success (at ``success_slot``)."""
        assert self._rng is not None
        self._phase = Phase.WAIT_CONTROL
        # The success channel (parity of success_slot) becomes the data
        # channel; Phase 2's backoff runs on the opposite channel, which is
        # exactly the channel containing success_slot + 1.
        self._phase2_view = VirtualChannelView(
            anchor_slot=success_slot + 1, same_parity=True
        )
        self._phase2_backoff = HBackoff(self._params.backoff_budget, self._rng)

    def _start_phase3(self, anchor_slot: int) -> None:
        """(Re)start Phase 3 with anchor ``l3 = anchor_slot``."""
        assert self._rng is not None
        if self._phase is Phase.BATCH:
            self._phase3_restarts += 1
        self._phase = Phase.BATCH
        self._ctrl_view = VirtualChannelView(anchor_slot=anchor_slot + 1, same_parity=True)
        self._data_view = VirtualChannelView(anchor_slot=anchor_slot + 2, same_parity=True)
        self._ctrl_batch = HBatch(self._params.ctrl_probability, self._rng)
        self._data_batch = HBatch(self._params.data_probability, self._rng)

    def wants_to_broadcast(self, slot: int) -> bool:
        if self._phase is Phase.SYNCHRONIZE:
            assert self._phase1_view is not None and self._phase1_backoff is not None
            if self._phase1_view.contains(slot):
                return self._phase1_backoff.should_send(
                    self._phase1_view.local_index(slot)
                )
            return False
        if self._phase is Phase.WAIT_CONTROL:
            assert self._phase2_view is not None and self._phase2_backoff is not None
            if self._phase2_view.contains(slot):
                return self._phase2_backoff.should_send(
                    self._phase2_view.local_index(slot)
                )
            return False
        # Phase 3: both batches run concurrently, one per virtual channel.
        assert self._ctrl_view is not None and self._data_view is not None
        assert self._ctrl_batch is not None and self._data_batch is not None
        if self._ctrl_view.contains(slot):
            return self._ctrl_batch.should_send(self._ctrl_view.local_index(slot))
        if self._data_view.contains(slot):
            return self._data_batch.should_send(self._data_view.local_index(slot))
        return False

    def broadcast_probability(self, slot: int) -> Optional[float]:
        """Marginal sending probability in ``slot`` given the current phase.

        Computed from the subroutines' population-level rates (the a-priori
        stage marginal for ``h``-backoff, the rate function for ``h``-batch).
        The protocol remains feedback-adaptive, so it does **not** opt into
        the vectorized kernel; this hook feeds analysis and diagnostics.
        """
        if self._rng is None:
            return None
        if self._phase is Phase.SYNCHRONIZE:
            assert self._phase1_view is not None and self._phase1_backoff is not None
            if self._phase1_view.contains(slot):
                return self._phase1_backoff.marginal_probability(
                    self._phase1_view.local_index(slot)
                )
            return 0.0
        if self._phase is Phase.WAIT_CONTROL:
            assert self._phase2_view is not None and self._phase2_backoff is not None
            if self._phase2_view.contains(slot):
                return self._phase2_backoff.marginal_probability(
                    self._phase2_view.local_index(slot)
                )
            return 0.0
        assert self._ctrl_view is not None and self._data_view is not None
        assert self._ctrl_batch is not None and self._data_batch is not None
        if self._ctrl_view.contains(slot):
            return self._ctrl_batch.probability(self._ctrl_view.local_index(slot))
        if self._data_view.contains(slot):
            return self._data_batch.probability(self._data_view.local_index(slot))
        return 0.0

    def on_feedback(
        self, slot: int, feedback: Feedback, broadcast: bool, success_was_own: bool
    ) -> None:
        if success_was_own or feedback is not Feedback.SUCCESS:
            return
        if self._phase is Phase.SYNCHRONIZE:
            self._start_phase2(slot)
        elif self._phase is Phase.WAIT_CONTROL:
            assert self._phase2_view is not None
            if self._phase2_view.contains(slot):
                self._start_phase3(slot)
        else:  # Phase 3
            assert self._ctrl_view is not None
            if self._ctrl_view.contains(slot):
                self._start_phase3(slot)

    # --------------------------------------------------------------- lockstep

    def lockstep_program(self) -> Optional[LockstepProgram]:
        # Only the exact bundled classes get a columnar program: a subclass
        # overriding any hook would silently diverge from the columnar replay.
        # The two-channel protocol overrides none; it differs only in the
        # parameters its constructor builds.
        from ..protocols.two_channel_no_jamming import TwoChannelNoJamming

        if type(self) not in (
            ChenJiangZhengProtocol, GlobalClockVariant, TwoChannelNoJamming
        ):
            return None
        return CJZLockstepProgram(
            self._params, global_clock=type(self) is GlobalClockVariant
        )


class CJZLockstepProgram(LockstepProgram):
    """Columnar population state of the CJZ protocol for the lockstep kernel.

    Per-node state is three phase anchors plus the ``h``-backoff plan of the
    current stage:

    * ``phase`` — 1 (SYNCHRONIZE), 2 (WAIT_CONTROL) or 3 (BATCH);
    * ``anchor1`` — the arrival slot (Phase 1's virtual-channel anchor);
    * ``anchor2`` — Phase 2's channel anchor (``l1 + 1``);
    * ``anchor3`` — Phase 3's anchor ``l3`` (control channel at ``l3 + 1``);
    * ``stage`` / ``plan`` / ``plan_ptr`` / ``next_planned`` — the realized
      send plan of the current backoff stage, stored as a sorted row of
      local indices so the per-slot membership test is one comparison.

    RNG consumption mirrors the per-node reference exactly: entering backoff
    stage ``k >= 1`` draws the stage's send plan as ``count`` bounded
    integers (stage 0 consumes nothing — numpy's zero-range path), and every
    Phase-3 slot draws one ``random()`` double for the active batch
    subroutine.  ``h``-batch probabilities are table lookups built with the
    same scalar calls ``HBatch.probability`` makes, so comparisons are
    float-identical.
    """

    def __init__(
        self, parameters: AlgorithmParameters, global_clock: bool = False
    ) -> None:
        self._params = parameters
        self._global_clock = global_clock
        self._pool = None
        self._trials = 0
        self._capacity = 0

    # ----------------------------------------------------------------- setup

    def _build_tables(self, horizon: int):
        """Stage counts and ``h``-batch tables shared with the compiled tier.

        Memoized process-wide by the spec-derived parameters and the horizon
        (:mod:`repro.sim.artifacts`): the scalar probability calls dominate
        dispatch cost for repeated sweep points over equivalent protocols,
        and the tables are pure functions of ``(params, horizon)``.
        Parameters outside the spec surface (``from_f``, hand-assembled
        rates) have no stable identity and build uncached.  All consumers
        treat the returned arrays as read-only.
        """
        from ..errors import SpecError
        from ..sim import artifacts

        try:
            key = (
                "cjz-tables",
                artifacts.canonical_key(self._params.to_spec_params()),
                horizon,
            )
        except SpecError:
            return self._compute_tables(horizon)
        return artifacts.cached_artifact(
            key, lambda: self._compute_tables(horizon)
        )

    def _compute_tables(self, horizon: int):
        """Stage counts clamp exactly as ``HBackoff._enter_stage`` does; the
        probability tables are built with the same scalar calls
        ``HBatch.probability`` would make, so both the columnar and the
        compiled `uniform < p` comparisons are float-identical.
        """
        params = self._params
        stage_counts = [
            min(params.backoff_budget(1 << k), 1 << k) for k in range(32)
        ]
        # index = local slot index (0 unused).
        size = horizon + 2
        ctrl_table = np.zeros(size)
        data_table = np.zeros(size)
        ctrl, data = params.ctrl_probability, params.data_probability
        ctrl_table[1:] = [ctrl(i) for i in range(1, size)]
        data_table[1:] = [data(i) for i in range(1, size)]
        return stage_counts, ctrl_table, data_table

    def compiled_tables(self, horizon: int) -> CompiledProgramTables:
        def build() -> CompiledProgramTables:
            stage_counts, ctrl_table, data_table = self._build_tables(horizon)
            return CompiledProgramTables.build(
                opcode=OP_CJZ,
                # [phase, anchor1, anchor2, anchor3, stage, plan_ptr,
                #  next_planned]
                int_state_width=7,
                float_state_width=0,
                prog_i=[1 if self._global_clock else 0],
                plan_width=max(stage_counts) + 1,
                stage_counts=stage_counts,
                table_ctrl=ctrl_table,
                table_data=data_table,
            )

        from ..errors import SpecError
        from ..sim import artifacts

        try:
            key = (
                "cjz-compiled-tables",
                artifacts.canonical_key(self._params.to_spec_params()),
                self._global_clock,
                horizon,
            )
        except SpecError:
            return build()
        return artifacts.cached_artifact(key, build)

    def bind(self, trials: int, capacity: int, pool, horizon: int) -> None:
        self._pool = pool
        self._trials = trials
        self._capacity = capacity
        self._stage_counts, self._ctrl_table, self._data_table = (
            self._build_tables(horizon)
        )
        self._plan_width = max(self._stage_counts) + 1
        rows = trials * capacity
        self._phase = np.zeros(rows, dtype=np.int8)
        self._anchor1 = np.zeros(rows, dtype=np.int64)
        self._anchor2 = np.zeros(rows, dtype=np.int64)
        self._anchor3 = np.zeros(rows, dtype=np.int64)
        self._stage = np.full(rows, -1, dtype=np.int64)
        self._plan = np.full((rows, self._plan_width), LOCKSTEP_SENTINEL, np.int64)
        self._plan_ptr = np.zeros(rows, dtype=np.int64)
        self._next_planned = np.full(rows, LOCKSTEP_SENTINEL, dtype=np.int64)

    def grow(self, trials: int, old_capacity: int, new_capacity: int) -> None:
        args = (trials, old_capacity, new_capacity)
        self._capacity = new_capacity
        self._phase = grow_flat_column(self._phase, *args)
        self._anchor1 = grow_flat_column(self._anchor1, *args)
        self._anchor2 = grow_flat_column(self._anchor2, *args)
        self._anchor3 = grow_flat_column(self._anchor3, *args)
        self._stage = grow_flat_column(self._stage, *args, fill=-1)
        self._plan = grow_flat_column(self._plan, *args, fill=LOCKSTEP_SENTINEL)
        self._plan_ptr = grow_flat_column(self._plan_ptr, *args)
        self._next_planned = grow_flat_column(
            self._next_planned, *args, fill=LOCKSTEP_SENTINEL
        )

    # ---------------------------------------------------------------- arrive

    def arrive(self, rows: np.ndarray, slot: int) -> None:
        if self._global_clock:
            # GlobalClockVariant: straight to Phase 2 on the globally known
            # control channel, anchored at the next odd slot.
            self._phase[rows] = 2
            self._anchor2[rows] = slot if slot % 2 == 1 else slot + 1
        else:
            self._phase[rows] = 1
            self._anchor1[rows] = slot
        self._stage[rows] = -1
        self._next_planned[rows] = LOCKSTEP_SENTINEL

    # ------------------------------------------------------------------ step

    def step(self, rows: np.ndarray, slot: int) -> np.ndarray:
        sends = np.zeros(len(rows), dtype=bool)
        phase = self._phase[rows]
        parity = slot & 1
        mask12 = phase < 3
        if mask12.any():
            # Phases 1 and 2 both run (f/a)-backoff, differing only in the
            # virtual-channel anchor — one merged pass handles both.
            self._step_backoff(rows, sends, mask12, phase, slot, parity)
        mask3 = phase == 3
        if mask3.any():
            self._step_batch(rows, sends, mask3, slot, parity)
        return sends

    def _step_backoff(
        self,
        rows: np.ndarray,
        sends: np.ndarray,
        mask: np.ndarray,
        phase: np.ndarray,
        slot: int,
        parity: int,
    ) -> None:
        """One slot of ``(f/a)``-backoff on each node's phase channel."""
        positions = np.nonzero(mask)[0]
        selected = rows[positions]
        anchor = np.where(
            phase[positions] == 1,
            self._anchor1[selected],
            self._anchor2[selected],
        )
        on_channel = ((anchor & 1) == parity) & (slot >= anchor)
        if not on_channel.any():
            return
        positions = positions[on_channel]
        selected = selected[on_channel]
        local = ((slot - anchor[on_channel]) >> 1) + 1
        # floor(log2(local)) == frexp exponent - 1, exact for int64 locals.
        stage = np.frexp(local.astype(np.float64))[1].astype(np.int64) - 1
        entering = stage != self._stage[selected]
        if entering.any():
            self._enter_stages(selected[entering], stage[entering])
        hits = self._next_planned[selected] == local
        if hits.any():
            hit_rows = selected[hits]
            pointer = self._plan_ptr[hit_rows] + 1
            self._plan_ptr[hit_rows] = pointer
            self._next_planned[hit_rows] = self._plan[hit_rows, pointer]
            sends[positions[hits]] = True

    def _enter_stages(self, rows: np.ndarray, stages: np.ndarray) -> None:
        """Draw and store the send plans of freshly entered backoff stages."""
        for k in np.unique(stages).tolist():
            selected = rows[stages == k]
            count = self._stage_counts[k]
            if k == 0:
                # integers(1, 2, size=count) is numpy's zero-range path: no
                # randomness is consumed and every draw equals 1.
                draws = np.ones((1, len(selected)), dtype=np.int64)
            else:
                draws = self._pool.pow2_batch(selected, k, count)
                draws.sort(axis=0)
                if count > 1:
                    # Duplicates collapse (drawing with replacement); push
                    # them past the end so the plan row is sorted + unique.
                    duplicate = np.zeros_like(draws, dtype=bool)
                    duplicate[1:] = draws[1:] == draws[:-1]
                    if duplicate.any():
                        draws[duplicate] = LOCKSTEP_SENTINEL
                        draws.sort(axis=0)
            plan = np.full(
                (len(selected), self._plan_width), LOCKSTEP_SENTINEL, np.int64
            )
            plan[:, : draws.shape[0]] = draws.T
            self._plan[selected] = plan
            self._plan_ptr[selected] = 0
            self._next_planned[selected] = draws[0]
            self._stage[selected] = k

    def _step_batch(
        self,
        rows: np.ndarray,
        sends: np.ndarray,
        mask: np.ndarray,
        slot: int,
        parity: int,
    ) -> None:
        """One slot of Phase 3: both ``h``-batches, one per virtual channel."""
        positions = np.nonzero(mask)[0]
        selected = rows[positions]
        anchor3 = self._anchor3[selected]
        # Control channel is anchored at l3+1, data at l3+2; together they
        # cover every slot > l3, so exactly one batch draws each slot.
        on_ctrl = ((anchor3 + 1) & 1) == parity
        local = np.where(
            on_ctrl,
            ((slot - anchor3 - 1) >> 1) + 1,
            ((slot - anchor3 - 2) >> 1) + 1,
        )
        probability = np.where(
            on_ctrl, self._ctrl_table[local], self._data_table[local]
        )
        uniforms = self._pool.doubles(selected)
        hits = uniforms < probability
        sends[positions[hits]] = True

    # -------------------------------------------------------------- feedback

    def feedback(
        self,
        slot: int,
        rows: np.ndarray,
        sends: np.ndarray,
        trial_success: np.ndarray,
        own_success: np.ndarray,
    ) -> None:
        heard = trial_success & ~own_success
        if not heard.any():
            return
        selected = rows[heard]
        phase = self._phase[selected]
        parity = slot & 1
        mask1 = phase == 1
        if mask1.any():
            starters = selected[mask1]
            self._phase[starters] = 2
            self._anchor2[starters] = slot + 1
            self._stage[starters] = -1
            self._next_planned[starters] = LOCKSTEP_SENTINEL
        mask2 = phase == 2
        if mask2.any():
            waiting = selected[mask2]
            anchor2 = self._anchor2[waiting]
            synchronized = ((anchor2 & 1) == parity) & (slot >= anchor2)
            starters = waiting[synchronized]
            self._phase[starters] = 3
            self._anchor3[starters] = slot
        mask3 = phase == 3
        if mask3.any():
            batching = selected[mask3]
            anchor3 = self._anchor3[batching]
            on_ctrl = (((anchor3 + 1) & 1) == parity) & (slot > anchor3)
            self._anchor3[batching[on_ctrl]] = slot


class GlobalClockVariant(ChenJiangZhengProtocol):
    """Ablation: assume a global clock so channel roles never need negotiating.

    With a global clock the odd channel can simply be declared the control
    channel and the even channel the data channel, removing the need for
    Phase 1 (the role-agreement phase).  A node starts directly in Phase 2,
    running backoff on the (globally known) control channel.  Comparing this
    variant against the full protocol isolates the cost of reaching agreement
    on channel roles without a clock.
    """

    name = "cjz-global-clock"
    spec_kind = "cjz-global-clock"

    def on_arrival(self, slot: int, rng: np.random.Generator) -> None:
        super().on_arrival(slot, rng)
        # Jump straight to Phase 2 with the odd channel (global parity) as the
        # control channel: anchor the Phase-2 view at the next odd slot.
        next_odd = slot if slot % 2 == 1 else slot + 1
        self._phase = Phase.WAIT_CONTROL
        self._phase2_view = VirtualChannelView(anchor_slot=next_odd, same_parity=True)
        self._phase2_backoff = HBackoff(self._params.backoff_budget, rng)


def cjz_factory(
    parameters: Optional[AlgorithmParameters] = None,
    global_clock: bool = False,
):
    """Protocol factory for the simulator (fresh instance per arriving node)."""
    params = parameters or AlgorithmParameters.from_g()
    cls = GlobalClockVariant if global_clock else ChenJiangZhengProtocol
    return make_factory(cls, params)
