"""WIRE — write-energy-reducing inversion coding (cross-paper extension).

WIRE (see PAPERS.md: "WIRE: Write-Induced Redundancy Elimination",
arXiv:2511.04928) keeps Flip-N-Write's flag-per-unit encoding but picks
the stored polarity by *transition cost* instead of transition count:
per data unit the straight and inverted images are priced as
``n_set * E_set + n_reset * E_reset`` over the data cells only (the flag
lives in a cheap side structure) and the cheaper encoding wins.  On PCM
asymmetries a SET costs ~4x a RESET, so trading a few extra RESETs for
fewer SETs cuts write energy below the count-minimal choice.

Timing is unchanged from Flip-N-Write: the count bound (at most ``N/2``
data-cell programs per unit, enforced as a feasibility override on the
cost choice) preserves the two-units-per-write-unit power guarantee, so
the write stage stays ``(N/M)/2`` write units — Eq. 2's constant.  The
scheme's whole effect is on the energy (and wear) column.

Guarantee (pinned by the ``wire_vs_fnw_energy`` metamorphic relation):
WIRE's per-line write energy never exceeds Flip-N-Write's on the same
``(stored image, new data)`` pair, because FNW's count-rule choice is
always feasible under the same bound and WIRE picks the cost-minimal
feasible encoding.
"""

from __future__ import annotations

import numpy as np

from repro.core.pricing import PRICING
from repro.core.read_stage import cost_aware_flip
from repro.pcm.state import LineState
from repro.schemes.base import WriteOutcome, WriteScheme, declared_worst_case_units

__all__ = ["WIREWrite"]


class WIREWrite(WriteScheme):
    """``T = Tread + (N/M)/2 * Tset``; polarity chosen by energy, not count."""

    name = "wire"
    requires_read = PRICING[name].requires_read
    worst_case_units = declared_worst_case_units

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        # Cost objective over data cells only (charge_tag=False); the
        # count bound keeps FNW's power/timing guarantee intact, so the
        # Eq. 2 write-stage constant below stays honest.
        rs = cost_aware_flip(
            state.physical,
            state.flip,
            new_logical,
            set_cost=self.energy_model.e_set,
            reset_cost=self.energy_model.e_reset,
            unit_bits=self.config.data_unit_bits,
            max_programs=self.config.data_unit_bits // 2,
            charge_tag=False,
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
