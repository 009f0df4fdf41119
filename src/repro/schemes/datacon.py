"""DATACON — content-aware write that skips silent data units.

DATACON (see PAPERS.md: "Improving Phase Change Memory Performance with
Data Content Aware Access", arXiv:2005.04753) observes that after the
read-before-write comparison many 64-bit data units need *no* cell
programs at all, yet a conventional/DCW controller still walks every
write unit serially.  The content-aware controller issues program pulses
only for the dirty units, so the write stage shortens to one ``t_set``
write unit per unit that actually changes.

Service model (at the paper point, where one data unit maps to one
write unit)::

    T = Tread + (#units with n_set + n_reset > 0) * Tset

In general each dirty data unit costs the conventional per-data-unit
share ``(N/M) / data_units`` of the line's write units, so a fully
dirty line is exactly Eq. 1 and the write stage never exceeds
Conventional/DCW's constant at *any* operating point — the
``datacon_vs_conventional`` metamorphic relation.  Energy is DCW's
(changed cells only, plain encoding — no inversion machinery).
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units
from repro.util.bits import reset_mask, set_mask

__all__ = ["DataConWrite"]


class DataConWrite(WriteScheme):
    """``T = Tread + dirty_units * Tset``; programs changed units only."""

    name = "datacon"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        # Like DCW, DATACON stores plain (unflipped) data: compare the
        # logical view so inverted leftovers from a flip-capable scheme
        # are normalized on the way through.
        old_logical = state.logical
        n_set = np.bitwise_count(set_mask(old_logical, new_logical)).astype(
            np.int64
        )
        n_reset = np.bitwise_count(reset_mask(old_logical, new_logical)).astype(
            np.int64
        )
        dirty_units = int(np.count_nonzero(n_set + n_reset))
        per_dirty = self.config.units_per_line / self.config.data_units_per_line
        state.store(new_logical, np.zeros(new_logical.shape, dtype=bool))
        return self._outcome(
            units=dirty_units * per_dirty,
            read_ns=self.t_read,
            analysis_ns=0.0,
            n_set=int(n_set.sum()),
            n_reset=int(n_reset.sum()),
        )
