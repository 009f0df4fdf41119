"""Tetris-Relaxed: Algorithm 2 without write-unit alignment (extension).

The hardware Tetris FSMs align every write-1 burst to a write-unit
boundary (FSM1 advances in whole ``t_set`` steps).  This variant drops
that constraint: bursts take the earliest sub-slot offset with headroom,
via the generalized packer.  It bounds how much performance the aligned
FSMs leave behind — the alignment-cost bench measures ~0 % at the
paper's operating point, which is itself a result: Algorithm 2's
hardware simplicity is free.

Registered as ``"tetris_relaxed"``; usable anywhere a scheme name is
accepted.  ``repro.core.pricing`` prices it per write through the
generalized packer's count-only entry (no vectorized packer exists for
the unaligned variant), so it is slower to price than ``"tetris"``.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.generalized import BurstClass, GeneralizedScheduler
from repro.core.pricing import PRICING
from repro.core.read_stage import read_stage
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["TetrisRelaxedWrite"]


class TetrisRelaxedWrite(WriteScheme):
    """Earliest-fit, unaligned variant of Tetris Write."""

    name = "tetris_relaxed"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def __init__(self, config: SystemConfig | None = None) -> None:
        super().__init__(config)
        cfg = self.config
        self.write1_class = BurstClass("write1", cfg.K, 1.0)
        self.write0_class = BurstClass("write0", 1, cfg.L)
        self.scheduler = GeneralizedScheduler(
            cfg.bank_power_budget, cfg.timings.t_set_ns / cfg.K
        )
        self.last_schedule = None


    def service_units_for_counts(
        self, n_set: np.ndarray, n_reset: np.ndarray
    ) -> float:
        """Write-stage length in t_set units for given change counts."""
        sched = self.scheduler.schedule(
            {
                self.write1_class: np.asarray(n_set, dtype=np.int64),
                self.write0_class: np.asarray(n_reset, dtype=np.int64),
            }
        )
        self.last_schedule = sched
        return sched.total_subslots / self.config.K

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        rs = read_stage(
            state.physical,
            state.flip,
            new_logical,
            unit_bits=self.config.data_unit_bits,
            count_flip_bit=self.config.count_flip_bit,
        )
        units = self.service_units_for_counts(rs.n_set, rs.n_reset)
        state.store(rs.physical, rs.flip)
        return self._outcome(
            units=units,
            read_ns=self.t_read,
            analysis_ns=self.config.analysis_overhead_ns,
            n_set=int(rs.n_set.sum()),
            n_reset=int(rs.n_reset.sum()),
            flipped_units=int(rs.flip.sum()),
        )
