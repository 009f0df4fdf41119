"""Three-Stage-Write (Li et al., ASP-DAC 2015) — paper Equation 4.

Combines Flip-N-Write's read-and-flip with 2-Stage-Write's phase split:

* **read stage** — read the stored line, flip each unit when more than
  half of its cells would change; only *changed* cells are programmed
  afterwards, at most ``N/2`` per unit.
* **stage-0** — RESET the changed '0' cells.  With at most ``N/2`` per
  unit, two units fit one sub-slot: ``(N/M)/(2K)`` write-unit times —
  half of 2-Stage-Write's stage-0.
* **stage-1** — SET the changed '1' cells: ``(N/M)/(2L)`` write-unit
  times, same as 2-Stage-Write.

``T = Tread + (1/2K + 1/2L) * (N/M) * Tset``, and the energy is
comparison-based like Flip-N-Write (Table I: reduces both).
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.core.read_stage import read_stage
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["ThreeStageWrite"]


class ThreeStageWrite(WriteScheme):
    """``T = Tread + (1/2K + 1/2L) * (N/M) * Tset``; changed cells only."""

    name = "three_stage"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
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
