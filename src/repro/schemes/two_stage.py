"""2-Stage-Write (Yue & Zhu, HPCA 2013) — paper Equation 3.

Splits the write into a RESET phase and a SET phase to exploit both
asymmetries, *without* a read-before-write:

* **stage-0** programs every '0' cell of every unit.  RESETs are fast
  (``t_reset = t_set/K``) but draw ``L`` SET units each, so one write
  unit's worth of zeros saturates the budget per sub-slot — the phase
  takes ``(N/M)/K`` write-unit times.
* **stage-1** programs every '1' cell.  The data is flipped per unit when
  more than half its bits are '1', bounding SETs at ``N/2`` per unit, and
  SET current is ``1/L`` of RESET, so ``2L`` units run per ``t_set``:
  the phase takes ``(N/M)/(2L)`` write-unit times.

Because no comparison is done, *all* cells are programmed — 2-Stage-Write
reduces latency but not energy (Table I).
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["TwoStageWrite"]

_U64 = np.uint64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class TwoStageWrite(WriteScheme):
    """``T = (1/K + 1/2L) * (N/M) * Tset``; programs every cell."""

    name = "two_stage"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=_U64)
        unit_bits = self.config.data_unit_bits
        mask = _ONES if unit_bits == 64 else _U64((1 << unit_bits) - 1)

        # Flip-for-stage-1: store inverted when more than half the bits
        # are '1', so the SET phase writes at most N/2 cells per unit.
        ones = np.bitwise_count(new_logical & mask).astype(np.int64)
        flip = ones > unit_bits // 2
        physical = np.where(flip, ~new_logical & mask, new_logical & mask)

        n_set = int(np.bitwise_count(physical).sum())
        n_cells = new_logical.size * unit_bits
        state.store(physical, flip)
        return self._outcome(
            units=self.worst_case_units(),
            read_ns=0.0,
            analysis_ns=0.0,
            n_set=n_set,
            n_reset=n_cells - n_set,
            flipped_units=int(flip.sum()),
        )
