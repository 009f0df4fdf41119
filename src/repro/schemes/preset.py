"""PreSET (Qureshi et al., ISCA 2012 — the paper's ref [23]).

PreSET inverts the asymmetry exploit: during idle periods the controller
proactively programs *every* cell of a dirty-predicted line to '1' (SET,
slow but off the critical path).  A demand write then only needs to
RESET the 0-cells of the new data — short, high-current pulses that pack
densely under the power budget.

Service model: each data unit demands ``n_zero * L`` current for one
sub-write-unit; units are first-fit packed into sub-slots (the write-0
pass of Algorithm 2 with no write-1 interspace).  The pre-SET itself is
charged to energy (it programs all cells eventually) but not to demand
latency — the scheme's entire premise, and its well-known cost: idle
bandwidth and endurance.

This is an extension baseline: the paper cites PreSET but does not
compare against it.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.analysis import TetrisScheduler
from repro.core.pricing import PRICING
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["PreSETWrite"]

_U64 = np.uint64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class PreSETWrite(WriteScheme):
    """Demand writes RESET-only; SETs pre-done in the background."""

    name = "preset"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def __init__(self, config: SystemConfig | None = None) -> None:
        super().__init__(config)
        cfg = self.config
        # Reuse Algorithm 2's write-0 machinery: no write-1s exist, so
        # every unit's RESET burst lands in (result=0) + extra sub-slots.
        self.scheduler = TetrisScheduler(
            cfg.K, cfg.L, cfg.bank_power_budget, allow_split=True
        )
        self.preset_cells = 0  # background SETs owed (energy/endurance)
        self.last_schedule = None  # most recent demand-write schedule


    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=_U64)
        unit_bits = self.config.data_unit_bits
        mask = _ONES if unit_bits == 64 else _U64((1 << unit_bits) - 1)

        # The line was pre-SET: every cell is '1'; RESET the 0-cells.
        n_reset = (unit_bits - np.bitwise_count(new_logical & mask)).astype(
            np.int64
        )
        sched = self.scheduler.schedule(np.zeros_like(n_reset), n_reset)
        self.last_schedule = sched
        # Background debt: the next idle pre-SET must re-SET those cells.
        self.preset_cells += int(n_reset.sum())

        state.store(new_logical & mask, np.zeros(new_logical.shape, dtype=bool))
        out = self._outcome(
            units=sched.service_units(),
            read_ns=0.0,
            analysis_ns=0.0,
            n_set=0,
            n_reset=int(n_reset.sum()),
        )
        # Charge the deferred SET energy here so comparisons are honest:
        # every RESET cell will be re-SET in the background before the
        # next write.
        return WriteOutcome(
            service_ns=out.service_ns,
            units=out.units,
            read_ns=out.read_ns,
            analysis_ns=out.analysis_ns,
            n_set=out.n_set,
            n_reset=out.n_reset,
            energy=out.energy
            + float(self.energy_model.e_set) * int(n_reset.sum()),
            flipped_units=0,
        )
