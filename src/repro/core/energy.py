"""Per-bit write energy model built on the two PCM asymmetries.

Energy is charged per programmed cell as *current x time* in the paper's
normalized units (SET current = 1):

* a SET cell draws 1 SET unit for ``t_set`` ns   -> ``1 * 430 = 430``
* a RESET cell draws ``L`` SET units for ``t_reset`` ns -> ``2 * 53 = 106``

so a SET is roughly 4x as energetic as a RESET at the paper's operating
point — but RESETs draw twice the *instantaneous* current, which is the
constraint that matters for parallelism.  The ``joules_per_unit`` scale
converts the normalized figure to physical energy when the pump's V/I
operating point is known; all comparisons in the benches use the
normalized figure, as Table I only makes relative claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyModel"]


@dataclass(frozen=True)
class EnergyModel:
    """Energy bookkeeping for reads and writes.

    Attributes
    ----------
    t_set_ns / t_reset_ns / reset_current_ratio:
        The device operating point (defaults: paper Table II).
    read_energy_per_line:
        Cost of one array read in the same normalized units.  Reads use
        low-voltage sensing, far below a single RESET; the exact figure
        is not in the paper, so we use a small constant and expose it as
        a knob (it only shifts all read-before-write schemes equally).
    """

    t_set_ns: float = 430.0
    t_reset_ns: float = 53.0
    reset_current_ratio: float = 2.0
    read_energy_per_line: float = 10.0

    @classmethod
    def for_config(cls, config) -> "EnergyModel":
        """The model at a ``SystemConfig``'s operating point."""
        return cls(
            t_set_ns=config.timings.t_set_ns,
            t_reset_ns=config.timings.t_reset_ns,
            reset_current_ratio=config.L,
        )

    @property
    def e_set(self) -> float:
        """Normalized energy of programming one cell to '1'."""
        return 1.0 * self.t_set_ns

    @property
    def e_reset(self) -> float:
        """Normalized energy of programming one cell to '0'."""
        return self.reset_current_ratio * self.t_reset_ns

    def write_energy(self, n_set_bits, n_reset_bits):
        """Energy of programming the given cell counts (scalar or array)."""
        return (
            np.asarray(n_set_bits, dtype=np.float64) * self.e_set
            + np.asarray(n_reset_bits, dtype=np.float64) * self.e_reset
        )

    def total(self, n_set_bits, n_reset_bits, n_reads: int = 0) -> float:
        """Aggregate energy for a request mix."""
        write = float(np.asarray(self.write_energy(n_set_bits, n_reset_bits)).sum())
        return write + n_reads * self.read_energy_per_line
