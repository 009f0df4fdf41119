"""Flip-N-Write (Cho & Lee, MICRO 2009) — paper Equation 2.

Reads the stored line, then per data unit stores either the data or its
complement so that at most half of the cells (plus the flip tag) are
programmed.  Because the guaranteed bound is ``N/2`` cells per unit, two
data units always fit the power budget of one conventional write unit, so
the effective write unit doubles: ``T = Tread + (N/M)/2 * Tset``.
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.core.read_stage import cost_aware_flip, read_stage
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["FlipNWrite"]


class FlipNWrite(WriteScheme):
    """``T = Tread + (N/M)/2 * Tset``; flip halves the programmed cells.

    ``flip_policy="cost"`` swaps the count-based rule for the CAFO-style
    energy-weighted one (paper ref [22]) — same timing guarantee, lower
    energy on SET-heavy content.
    """

    name = "flip_n_write"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def __init__(self, config=None, *, flip_policy: str = "count") -> None:
        super().__init__(config)
        if flip_policy not in ("count", "cost"):
            raise ValueError("flip_policy must be 'count' or 'cost'")
        self.flip_policy = flip_policy


    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        if self.flip_policy == "cost":
            # The count bound keeps FNW's two-units-per-write-unit power
            # guarantee intact (see cost_aware_flip's max_programs note).
            rs = cost_aware_flip(
                state.physical,
                state.flip,
                new_logical,
                set_cost=self.energy_model.e_set,
                reset_cost=self.energy_model.e_reset,
                unit_bits=self.config.data_unit_bits,
                max_programs=self.config.data_unit_bits // 2,
            )
        else:
            rs = read_stage(
                state.physical,
                state.flip,
                new_logical,
                unit_bits=self.config.data_unit_bits,
                count_flip_bit=self.config.count_flip_bit,
            )
        state.store(rs.physical, rs.flip)
        return self._outcome(
            units=self.worst_case_units(),
            read_ns=self.t_read,
            analysis_ns=0.0,
            n_set=int(rs.n_set.sum()),
            n_reset=int(rs.n_reset.sum()),
            flipped_units=int(rs.flip.sum()),
        )
