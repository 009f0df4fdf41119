"""Tetris Write — the paper's contribution, as a :class:`WriteScheme`.

Pipeline per cache-line write (paper §III.B):

1. **read** — :func:`repro.core.read_stage.read_stage`: flip decision and
   per-unit SET/RESET counts (Algorithm 1);
2. **analysis** — :class:`repro.core.analysis.TetrisScheduler`: first-fit-
   decreasing packing of write-1s into write units and Tetris-filling of
   write-0s into the leftover sub-slots (Algorithm 2), charged with the
   measured 41-cycle analysis overhead (§IV.D);
3. **individually write** — service time from Equation 5,
   ``(result + subresult/K) * Tset``.

Two scheduling granularities are supported:

* ``"bank"`` (default) — the Global Charge Pump pools the four chips'
  budgets, so the eight 64-bit data units are packed against the
  bank-level budget of 128 SET units.  This matches the paper's GCP
  configuration (§IV).
* ``"chip"`` — each chip schedules its own 16-bit slices against its
  private budget of 32; the bank finishes when the slowest chip does.
  This models a system without GCP and is used in the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.analysis import TetrisScheduler
from repro.core.pricing import PRICING
from repro.obs.runtime import emit_schedule
from repro.core.read_stage import read_stage
from repro.core.schedule import TetrisSchedule
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units
from repro.verify.invariants import verify_outcome, verify_schedule

__all__ = ["TetrisWrite"]

_U64 = np.uint64


class TetrisWrite(WriteScheme):
    """Content-aware write scheduling; ``units`` is measured, not fixed."""

    name = "tetris"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        granularity: str = "bank",
        exclusive_unit_slots: bool = False,
        adaptive_analysis: bool = False,
    ) -> None:
        """``adaptive_analysis`` enables the hardware fast path: when the
        line's total write-1 current and total write-0 current each fit a
        single (sub-)write-unit trivially — two adders and a comparator,
        no sorting network — the analyzer answers in ~4 cycles instead of
        41.  Observation 1 makes this the common case."""
        super().__init__(config)
        if granularity not in ("bank", "chip"):
            raise ValueError("granularity must be 'bank' or 'chip'")
        self.granularity = granularity
        self.adaptive_analysis = adaptive_analysis
        self.fast_path_hits = 0
        # 4 cycles at the 400 MHz analyzer clock: latch, two parallel
        # sums (adder trees), compare, write-out.
        self.fast_path_ns = 4 / 0.400
        cfg = self.config
        budget = (
            cfg.bank_power_budget
            if granularity == "bank"
            else cfg.power.power_budget_per_chip
        )
        # allow_split: when an operating point shrinks the budget below a
        # single burst's draw (mobile modes, high L), the burst divides
        # into budget-sized chunks as division-mode hardware would.
        self.scheduler = TetrisScheduler(
            cfg.K,
            cfg.L,
            budget,
            exclusive_unit_slots=exclusive_unit_slots,
            allow_split=True,
        )
        self.last_schedule: TetrisSchedule | None = None
        self.last_chip_schedules: list[TetrisSchedule] | None = None


    # ------------------------------------------------------------------
    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=_U64)
        rs = read_stage(
            state.physical,
            state.flip,
            new_logical,
            unit_bits=self.config.data_unit_bits,
            count_flip_bit=self.config.count_flip_bit,
        )

        if self.granularity == "bank":
            sched = self.scheduler.schedule(rs.n_set, rs.n_reset)
            units = sched.service_units()
            self.last_schedule = sched
            self.last_chip_schedules = None
            if self.verify:
                verify_schedule(
                    sched,
                    n_set=rs.n_set,
                    n_reset=rs.n_reset,
                    L=self.scheduler.L,
                    units=units,
                )
        else:
            units = self._schedule_per_chip(state, rs.physical)

        analysis_ns = self.config.analysis_overhead_ns
        if self.adaptive_analysis and self._fast_path_applies(rs):
            analysis_ns = self.fast_path_ns
            self.fast_path_hits += 1

        if self._obs is not None:
            # The write stage starts after the read + analysis stages;
            # lanes land on the bank timeline (GCP mode) or one process
            # per chip (private-pump mode).
            base = self._obs.clock.now_ns() + self.t_read + analysis_ns
            bank_pid = (
                "bank" if self.obs_bank is None else f"bank{self.obs_bank}"
            )
            if self.last_schedule is not None:
                emit_schedule(
                    self._obs,
                    self.last_schedule,
                    base_ns=base,
                    t_set_ns=self.t_set,
                    pid=bank_pid,
                    budget=self.scheduler.power_budget,
                )
            elif self.last_chip_schedules is not None:
                for c, chip_sched in enumerate(self.last_chip_schedules):
                    emit_schedule(
                        self._obs,
                        chip_sched,
                        base_ns=base,
                        t_set_ns=self.t_set,
                        pid=f"{bank_pid}.chipsched{c}",
                    )

        before = state.physical.copy() if self.verify else None
        state.store(rs.physical, rs.flip)
        outcome = self._outcome(
            units=units,
            read_ns=self.t_read,
            analysis_ns=analysis_ns,
            n_set=int(rs.n_set.sum()),
            n_reset=int(rs.n_reset.sum()),
            flipped_units=int(rs.flip.sum()),
        )
        if self.verify:
            # count_flip_bit adds flip-tag programs to the counts that the
            # physical image diff cannot see; allow that many extras.
            verify_outcome(
                outcome,
                t_set_ns=self.t_set,
                state_before=before,
                state_after=state.physical,
                exact_cells=not self.config.count_flip_bit,
                max_extra_cells=int(rs.flip.size),
            )
        return outcome

    def _fast_path_applies(self, rs) -> bool:
        """Trivial schedule detector: all write-1s share one write unit
        AND all write-0s share one sub-slot of its interspace."""
        budget = self.scheduler.power_budget
        in1 = float(rs.n_set.sum())
        in0 = float(rs.n_reset.sum()) * self.config.L
        return in1 <= budget and in1 + in0 <= budget

    # ------------------------------------------------------------------
    def _schedule_per_chip(self, state: LineState, new_physical: np.ndarray) -> float:
        """No-GCP mode: schedule each chip's slices independently.

        The flip decision stays at data-unit granularity (it already
        happened in the caller); here we only split each unit's SET/RESET
        masks into the per-chip 16-bit lanes and pack each chip against
        its private budget.  The bank's write completes when the slowest
        chip completes.
        """
        cfg = self.config
        slice_bits = cfg.organization.write_unit_bits_per_chip
        n_chips = cfg.data_unit_bits // slice_bits
        set_bits = ~state.physical & new_physical
        reset_bits = state.physical & ~new_physical

        schedules: list[TetrisSchedule] = []
        worst = 0.0
        lane = _U64((1 << slice_bits) - 1)
        for c in range(n_chips):
            shift = _U64(c * slice_bits)
            n1 = np.bitwise_count((set_bits >> shift) & lane).astype(np.int64)
            n0 = np.bitwise_count((reset_bits >> shift) & lane).astype(np.int64)
            sched = self.scheduler.schedule(n1, n0)
            if self.verify:
                verify_schedule(
                    sched, n_set=n1, n_reset=n0, L=self.scheduler.L,
                    units=sched.service_units(),
                )
            schedules.append(sched)
            worst = max(worst, sched.service_units())
        self.last_schedule = None
        self.last_chip_schedules = schedules
        return worst
