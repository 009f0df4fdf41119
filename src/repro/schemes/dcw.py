"""Data-Comparison Write — the paper's evaluation baseline.

DCW (Yang et al., ISCAS 2007) reads the stored line first and programs
only the cells whose value changes.  That removes redundant cell wear and
energy, but the *timing* stays the conventional worst case: the write is
still issued as ``N/M`` sequential write units of ``t_set`` each, plus the
read-before-write.  This is why Figure 10 shows the baseline at 8 write
units while its energy is already comparison-based.
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units
from repro.util.bits import reset_mask, set_mask

__all__ = ["DCWWrite"]


class DCWWrite(WriteScheme):
    """``T = Tread + (N/M) * Tset``; programs changed cells only."""

    name = "dcw"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        # DCW stores plain (unflipped) data; if a previous flip-capable
        # scheme left inverted units behind, compare against the logical
        # view and normalize the stored encoding.
        old_logical = state.logical
        n_set = int(np.bitwise_count(set_mask(old_logical, new_logical)).sum())
        n_reset = int(np.bitwise_count(reset_mask(old_logical, new_logical)).sum())
        state.store(new_logical, np.zeros(new_logical.shape, dtype=bool))
        return self._outcome(
            units=self.worst_case_units(),
            read_ns=self.t_read,
            analysis_ns=0.0,
            n_set=n_set,
            n_reset=n_reset,
        )
