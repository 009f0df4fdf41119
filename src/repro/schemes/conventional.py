"""Conventional write scheme (paper Equation 1).

Every write unit is charged its worst case: all cells of the unit are
programmed (no read-compare), and each unit completes after a full
``t_set`` regardless of content.  A 64 B line over an 8 B bank write unit
therefore takes ``8 * t_set`` and programs all 512 cells.
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["ConventionalWrite"]


class ConventionalWrite(WriteScheme):
    """``T = (N/M) * Tset``; programs every cell to its new value."""

    name = "conventional"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        n_ones = int(np.bitwise_count(new_logical).sum())
        n_cells = new_logical.size * self.config.data_unit_bits
        # No flip support: the stored image is the logical image.
        state.store(new_logical, np.zeros(new_logical.shape, dtype=bool))
        return self._outcome(
            units=self.worst_case_units(),
            read_ns=0.0,
            analysis_ns=0.0,
            n_set=n_ones,
            n_reset=n_cells - n_ones,
        )
