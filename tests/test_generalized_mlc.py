"""Tests for the generalized scheduler and the MLC extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import analyze
from repro.core.generalized import BurstClass, GeneralizedScheduler
from repro.pcm.mlc import MLC_LEVEL_CLASSES, MLCModel, mlc_level_counts

WRITE1 = BurstClass("write1", 8, 1.0)
WRITE0 = BurstClass("write0", 1, 2.0)
counts8 = st.lists(st.integers(min_value=0, max_value=32), min_size=8, max_size=8)


class TestBurstClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurstClass("x", 0, 1.0)
        with pytest.raises(ValueError):
            BurstClass("x", 1, 0.0)


class TestGeneralizedScheduler:
    def test_empty_schedule(self):
        sched = GeneralizedScheduler(128.0, 53.75).schedule({WRITE1: [0] * 8})
        assert sched.total_subslots == 0
        assert sched.completion_ns() == 0.0

    def test_single_burst(self):
        sched = GeneralizedScheduler(128.0, 53.75).schedule({WRITE1: [5]})
        assert sched.total_subslots == 8
        assert sched.completion_ns() == pytest.approx(8 * 53.75)

    def test_short_bursts_fill_gaps(self):
        """Long write-1s saturate 100/128; short write-0s (current 56)
        cannot share, but ones drawing <= 28 hide completely."""
        sched = GeneralizedScheduler(128.0, 53.75).schedule(
            {WRITE1: [100], WRITE0: [14]}  # write-0 current 28
        )
        assert sched.total_subslots == 8  # fully hidden

    def test_oversized_burst_split(self):
        sched = GeneralizedScheduler(32.0, 53.75).schedule({WRITE1: [40]})
        chunks = [b for b in sched.bursts if b.burst_class is WRITE1]
        assert len(chunks) == 2
        assert sum(b.n_cells for b in chunks) == 40

    def test_budget_below_one_cell_raises(self):
        with pytest.raises(ValueError):
            GeneralizedScheduler(1.0, 53.75).schedule({WRITE0: [1]})

    def test_validation_of_constructor(self):
        with pytest.raises(ValueError):
            GeneralizedScheduler(0.0, 53.75)
        with pytest.raises(ValueError):
            GeneralizedScheduler(128.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(counts8, counts8)
    def test_budget_never_exceeded(self, n1, n0):
        sched = GeneralizedScheduler(128.0, 53.75).schedule(
            {WRITE1: n1, WRITE0: n0}
        )
        occ = sched.occupancy()
        assert occ.size == 0 or occ.max() <= 128.0 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(counts8, counts8)
    def test_all_cells_scheduled(self, n1, n0):
        sched = GeneralizedScheduler(128.0, 53.75).schedule(
            {WRITE1: n1, WRITE0: n0}
        )
        placed1 = sum(b.n_cells for b in sched.bursts if b.burst_class is WRITE1)
        placed0 = sum(b.n_cells for b in sched.bursts if b.burst_class is WRITE0)
        assert placed1 == sum(n1)
        assert placed0 == sum(n0)

    @settings(max_examples=100, deadline=None)
    @given(counts8, counts8)
    def test_never_slower_than_algorithm2(self, n1, n0):
        """Dropping the write-unit alignment can only help: the
        unaligned earliest-fit completion is bounded by Equation 5."""
        aligned = analyze(n1, n0, K=8, L=2.0, power_budget=128.0)
        sched = GeneralizedScheduler(128.0, 430.0 / 8).schedule(
            {WRITE1: n1, WRITE0: n0}
        )
        assert sched.completion_ns() <= aligned.service_time_ns(430.0) + 1e-6


def _reference_placement(budget: float, demands) -> tuple[list, int]:
    """Earliest-fit over a numpy occupancy array, burst by burst: the
    placement rule as first written, kept as a reference for the
    production list-based loop."""
    items = []
    for cls, counts in demands.items():
        for unit, n in enumerate(counts):
            while n > 0:
                chunk = min(n, int(budget // cls.current_per_cell))
                items.append((cls.duration_subslots,
                              chunk * cls.current_per_cell, cls, unit, chunk))
                n -= chunk
    items.sort(key=lambda it: (-it[0], -it[1]))
    occ = np.zeros(0)
    placed = []
    for duration, current, cls, unit, cells in items:
        start = next(
            (s for s in range(occ.size)
             if np.all(occ[s:s + duration] + current <= budget + 1e-12)),
            occ.size,
        )
        end = start + duration
        if end > occ.size:
            occ = np.concatenate([occ, np.zeros(end - occ.size)])
        occ[start:end] += current
        placed.append((unit, cls, start, cells))
    return placed, occ.size


@st.composite
def demands_at_budget(draw):
    """SLC or MLC demands whose bursts reach past the budget (so they
    split into budget-sized chunks), with the budget they target."""
    budget = draw(st.sampled_from([8.0, 16.0, 37.5, 128.0]))
    if draw(st.booleans()):
        classes = MLC_LEVEL_CLASSES
    else:
        classes = (BurstClass("write1", draw(st.sampled_from([2, 4, 8])), 1.0),
                   BurstClass("write0", 1, draw(st.sampled_from([1.5, 2.0]))))
    units = draw(st.integers(min_value=1, max_value=8))
    cap = int(2 * budget)
    counts = st.lists(st.integers(min_value=0, max_value=cap),
                      min_size=units, max_size=units)
    return budget, {cls: draw(counts) for cls in classes}


class TestCountOnlyEntry:
    @settings(max_examples=150, deadline=None)
    @given(demands_at_budget())
    def test_count_matches_schedule_and_reference(self, case):
        budget, demands = case
        gs = GeneralizedScheduler(budget, 53.75)
        sched = gs.schedule(demands)
        sched.validate()
        bursts, total = _reference_placement(budget, demands)
        assert gs.total_subslots(demands) == sched.total_subslots == total
        assert [
            (b.unit, b.burst_class, b.start_subslot, b.n_cells)
            for b in sched.bursts
        ] == bursts

    def test_split_bursts_are_counted(self):
        # 300 SET cells at budget 128 split into 128 + 128 + 44; the two
        # full chunks each saturate the budget, so three write units.
        gs = GeneralizedScheduler(128.0, 53.75)
        sched = gs.schedule({WRITE1: [300]})
        assert [b.n_cells for b in sched.bursts] == [128, 128, 44]
        assert gs.total_subslots({WRITE1: [300]}) == sched.total_subslots == 24

    def test_budget_below_one_cell_raises(self):
        with pytest.raises(ValueError):
            GeneralizedScheduler(1.0, 53.75).total_subslots({WRITE0: [1]})


class TestMLCLevelCounts:
    def test_no_change_no_programs(self):
        u = np.array([0xDEAD_BEEF_CAFE_F00D], dtype=np.uint64)
        assert mlc_level_counts(u, u).sum() == 0

    def test_single_cell_transition(self):
        old = np.array([0b00], dtype=np.uint64)
        new = np.array([0b11], dtype=np.uint64)  # cell 0: level 0 -> 3
        counts = mlc_level_counts(old, new)
        assert counts[0].tolist() == [0, 0, 0, 1]

    def test_each_level_counted(self):
        # Cells 0..3 target levels 0..3; old value makes all change.
        new = np.uint64(0b11_10_01_00)
        old = np.uint64(0b00_01_10_11)
        counts = mlc_level_counts(np.array([old]), np.array([new]))
        assert counts[0].tolist() == [1, 1, 1, 1]

    def test_unchanged_cells_excluded(self):
        old = np.uint64(0b11_00)
        new = np.uint64(0b11_01)   # only cell 0 changes (level 1)
        counts = mlc_level_counts(np.array([old]), np.array([new]))
        assert counts[0].tolist() == [0, 1, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_total_equals_changed_cells(self, old, new):
        counts = mlc_level_counts(
            np.array([old], dtype=np.uint64), np.array([new], dtype=np.uint64)
        )
        changed = sum(
            1 for c in range(32)
            if (old >> (2 * c)) & 3 != (new >> (2 * c)) & 3
        )
        assert int(counts.sum()) == changed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mlc_level_counts(np.zeros(2, np.uint64), np.zeros(3, np.uint64))


class TestMLCModel:
    def test_needs_four_classes(self):
        with pytest.raises(ValueError):
            MLCModel(level_classes=MLC_LEVEL_CLASSES[:2])

    def test_tetris_beats_serial(self, rng):
        old = rng.integers(0, 1 << 63, size=8, dtype=np.uint64)
        new = old ^ rng.integers(0, 1 << 20, size=8, dtype=np.uint64)
        model = MLCModel()
        assert model.tetris_ns(old, new) <= model.serial_ns(old, new)

    def test_silent_write_is_free(self, line8):
        model = MLCModel()
        assert model.tetris_ns(line8, line8) == 0.0
        assert model.serial_ns(line8, line8) == 0.0

    def test_budget_respected(self, rng):
        old = rng.integers(0, 1 << 63, size=8, dtype=np.uint64)
        new = rng.integers(0, 1 << 63, size=8, dtype=np.uint64)
        sched = MLCModel(power_budget=64.0).schedule_line(old, new)
        assert sched.occupancy().max() <= 64.0 + 1e-9
