"""Generalized Tetris scheduling over arbitrary burst classes.

Algorithm 2 hard-codes two burst classes — write-1 (duration ``K``
sub-slots, 1 current unit per cell) and write-0 (duration 1, ``L`` per
cell).  MLC PCM breaks that dichotomy: programming a 2-bit cell to one of
four levels takes a level-dependent number of program-and-verify
iterations at a level-dependent current.  This module generalizes the
analysis stage to any set of :class:`BurstClass` es:

* bursts are sorted longest-duration first, then highest-current first
  (the Tetris intuition: lay the long pieces, fill gaps with short ones);
* each burst greedily takes the **earliest offset** on the sub-slot
  timeline where every sub-slot it spans has headroom;
* completion is the last occupied sub-slot.

For SLC demands this relaxes Algorithm 2's write-unit alignment (a
write-1 may start mid-unit), so its completion time is a lower-bound-
style comparison point for the aligned hardware scheduler; the property
tests pin the invariants (budget, coverage) and the relationship to
Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

__all__ = ["BurstClass", "GeneralizedSchedule", "GeneralizedScheduler", "PlacedBurst"]


@dataclass(frozen=True)
class BurstClass:
    """One kind of cell program.

    ``duration_subslots`` — how many sub-slots the burst holds its cells'
    current; ``current_per_cell`` — instantaneous draw per cell in SET
    units.  SLC: ``write1 = BurstClass("write1", K, 1.0)``,
    ``write0 = BurstClass("write0", 1, L)``.
    """

    name: str
    duration_subslots: int
    current_per_cell: float

    def __post_init__(self) -> None:
        if self.duration_subslots < 1:
            raise ValueError("burst duration must be >= 1 sub-slot")
        if self.current_per_cell <= 0:
            raise ValueError("burst current must be positive")


@dataclass(frozen=True)
class PlacedBurst:
    """A scheduled burst: which unit, which class, where on the timeline."""

    unit: int
    burst_class: BurstClass
    start_subslot: int
    n_cells: int

    @property
    def current(self) -> float:
        return self.n_cells * self.burst_class.current_per_cell

    @property
    def end_subslot(self) -> int:
        return self.start_subslot + self.burst_class.duration_subslots


@dataclass
class GeneralizedSchedule:
    """Outcome of a generalized packing run."""

    sub_slot_ns: float
    power_budget: float
    bursts: list[PlacedBurst] = field(default_factory=list)
    total_subslots: int = 0

    def completion_ns(self) -> float:
        return self.total_subslots * self.sub_slot_ns

    def occupancy(self) -> np.ndarray:
        occ = np.zeros(max(self.total_subslots, 1), dtype=np.float64)
        for b in self.bursts:
            occ[b.start_subslot : b.end_subslot] += b.current
        return occ[: self.total_subslots]

    def validate(self) -> None:
        occ = self.occupancy()
        assert occ.size == 0 or occ.max() <= self.power_budget + 1e-9, (
            f"budget exceeded: {occ.max()} > {self.power_budget}"
        )
        for b in self.bursts:
            assert b.end_subslot <= self.total_subslots


class GeneralizedScheduler:
    """Earliest-fit packing of heterogeneous bursts under one budget."""

    def __init__(self, power_budget: float, sub_slot_ns: float) -> None:
        if power_budget <= 0 or sub_slot_ns <= 0:
            raise ValueError("budget and sub-slot duration must be positive")
        self.power_budget = float(power_budget)
        self.sub_slot_ns = float(sub_slot_ns)

    def schedule(
        self, demands: dict[BurstClass, np.ndarray]
    ) -> GeneralizedSchedule:
        """Pack per-unit cell counts for each burst class.

        ``demands[cls][i]`` is the number of cells of data unit ``i``
        programmed by a burst of class ``cls``.  Oversized bursts
        (current above the budget) are split into budget-sized chunks.
        """
        sched = GeneralizedSchedule(
            sub_slot_ns=self.sub_slot_ns, power_budget=self.power_budget
        )
        sched.total_subslots = self._place(demands, sched.bursts)
        sched.validate()
        return sched

    def total_subslots(self, demands: dict[BurstClass, np.ndarray]) -> int:
        """``schedule(demands).total_subslots``, without building bursts.

        The per-write entry of ``repro.core.pricing``: same placement,
        same budget assertion, no :class:`PlacedBurst` objects.
        """
        return self._place(demands, None)

    def _place(self, demands, bursts: list[PlacedBurst] | None) -> int:
        """Earliest-fit packing; returns the occupied sub-slot count and
        appends one :class:`PlacedBurst` per burst unless ``bursts`` is None.

        A start fits when every existing sub-slot the burst spans keeps
        ``occupancy + current <= budget + 1e-12``; one pass finds the
        first run of ``duration`` fitting sub-slots, else the fitting run
        that reaches the end of the timeline, else the end itself.
        """
        items: list[tuple[int, float, BurstClass, int, int]] = []
        for cls, counts in demands.items():
            counts = np.atleast_1d(np.asarray(counts, dtype=np.int64)).tolist()
            max_cells = int(self.power_budget // cls.current_per_cell)
            for unit, n in enumerate(counts):
                if n > 0 and max_cells < 1:
                    raise ValueError(f"budget below one {cls.name} cell's current")
                while n > 0:
                    chunk = n if n < max_cells else max_cells
                    items.append(
                        (cls.duration_subslots, chunk * cls.current_per_cell,
                         cls, unit, chunk)
                    )
                    n -= chunk
        # Longest first, then most current — the Tetris ordering (stable).
        items.sort(key=itemgetter(0, 1), reverse=True)

        limit = self.power_budget + 1e-12
        occ: list[float] = []
        for duration, current, cls, unit, cells in items:
            size = len(occ)
            run = 0
            for t, o in enumerate(occ):
                if o + current <= limit:
                    run += 1
                    if run == duration:
                        start = t + 1 - duration
                        break
                else:
                    run = 0
            else:
                start = size - run
            end = start + duration
            if end > size:
                occ.extend([0.0] * (end - size))
            for t in range(start, end):
                occ[t] += current
            if bursts is not None:
                bursts.append(
                    PlacedBurst(unit=unit, burst_class=cls,
                                start_subslot=start, n_cells=cells)
                )
        assert not occ or max(occ) <= self.power_budget + 1e-9, (
            f"budget exceeded: {max(occ)} > {self.power_budget}"
        )
        return len(occ)
