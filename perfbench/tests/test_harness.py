"""Tests for the benchmark's self-time analysis, schedule and checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import check_fastpath_row, check_identical, paper_band_misses  # noqa: E402
from grids import DES_SCHEMES, TRACE_SEEDS, WORKLOADS  # noqa: E402
from layers import layer_summary, self_times, unattributed_s  # noqa: E402
from loadgen import SATURATION_JOBS, WARM_AGE_S, build_schedule  # noqa: E402
from reference import reference_row  # noqa: E402
from speed import REFERENCE_S_PER_ITER, SpeedMeter, normalize_window, without_probes  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start_ns": start * 1e9,
            "end_ns": end * 1e9, "name": name, "cell": ""}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, 0, 10, "parallel.engine"),
        span(2, 1, 1, 4, "des.run"),
        span(3, 1, 3, 6, "cache.get"),      # overlaps its sibling
        span(4, 2, 2, 3, "trace.generate"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    summary = layer_summary(spans)
    assert summary["parallel.engine"]["self_s"] == pytest.approx(5.0)
    assert summary["des.run"]["total_s"] == pytest.approx(3.0)
    assert summary["fastpath.price"]["calls"] == 0
    # Concurrent siblings (executor threads) each keep their overlap.
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_child_outside_its_parent_is_clipped():
    spans = [span(1, 0, 0, 2), span(2, 1, 1, 5)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_unattributed_time_is_busy_time_no_span_covers():
    # Two threads' spans overlap in [2, 3]; busy windows [0, 4] and [3.5, 6].
    spans = [span(1, 0, 1, 3), span(2, 0, 2, 5)]
    origin = 100.0
    windows = [(origin + 0, origin + 4), (origin + 3.5, origin + 6)]
    assert unattributed_s(spans, windows, origin) == pytest.approx(6.0 - 4.0)


def test_schedule_is_seeded_balanced_and_warm_jobs_only_reuse_finished_cells():
    seeds, sat = TRACE_SEEDS[:2], TRACE_SEEDS[2:5]
    a = build_schedule(5, 30, seeds, sat)
    assert a.jobs == build_schedule(5, 30, seeds, sat).jobs
    assert a.jobs != build_schedule(6, 30, seeds, sat).jobs
    # The cells asked for depend on the traces, hardly on the schedule
    # seed (only where PALP's shared DES cell is claimed first differs).
    def cells(schedule):
        return {c for j in schedule.jobs if j.kind == "cold" for c in j.grid.cells()}
    ca, cb = cells(a), cells(build_schedule(6, 30, seeds, sat))
    assert len(ca & cb) >= 0.9 * len(ca)
    cold = [j for j in a.jobs if j.kind == "cold"]
    warm = [j for j in a.jobs if j.kind == "warm"]
    assert len(cold) >= 100 and len(warm) >= 100
    for tenant in ("alice", "bob"):
        assert {j.kind for j in a.jobs + a.saturation if j.tenant == tenant} == {"cold", "warm"}
    assert len({j.index for j in a.jobs + a.saturation}) == len(a.jobs) + len(a.saturation)
    prewarmed = {c for g in a.prewarm for c in g.cells()}
    first_due = {}
    for job in cold:
        for c in job.grid.cells():
            first_due.setdefault(c, job.due)
    for job in warm:
        for c in job.grid.cells():
            assert c in prewarmed or first_due[c] <= job.due - WARM_AGE_S
    # Twins: the other tenant asks for the same grid at the same instant.
    by_grid = {}
    for j in cold:
        by_grid.setdefault(j.grid, []).append(j)
    pairs = [js for js in by_grid.values() if len(js) > 1]
    assert pairs and all(len(js) == 2 and js[0].due == js[1].due
                         and js[0].tenant != js[1].tenant for js in pairs)
    assert not prewarmed & set(first_due)
    # Saturation: cold cells only from its own traces, warm ones only
    # from grids the open loop finished.
    assert len(a.saturation) == SATURATION_JOBS
    sat_cold = [j for j in a.saturation if j.kind == "cold"]
    assert len(sat_cold) == SATURATION_JOBS // 3
    assert {c[0] for j in sat_cold for c in j.grid.cells()} <= set(sat)
    sat_cells = {c for j in sat_cold for c in j.grid.cells()}
    assert len(sat_cells) == sum(len(j.grid.cells()) for j in sat_cold)
    for j in a.saturation:
        if j.kind == "warm":
            assert set(j.grid.cells()) <= prewarmed | set(first_due)
    assert a.expected_executions() == len(first_due) + len(sat_cells)


def test_a_perturbed_row_fails_its_check():
    ts = TRACE_SEEDS[0]
    row = reference_row(ts, "off/4000", "vips", "tetris")
    assert check_identical(row, ts, "off/4000") == []
    bumped = dict(row, runtime_ns=row["runtime_ns"] * (1 + 1e-12))
    assert check_identical(bumped, ts, "off/4000")
    fast = dict(row, events=0)
    assert check_fastpath_row(fast, ts, 4000) == []
    assert check_fastpath_row(dict(fast, mean_write_units=row["mean_write_units"] + 1e-9), ts, 4000)
    assert check_fastpath_row(dict(fast, ipc=row["ipc"] * 1.2), ts, 4000)


def test_a_late_job_fails_without_its_output_being_wrong():
    from run import Tally

    tally = Tally()
    tally.add(1, ["job 3: 2.5s over the limit"], late=True)
    tally.add(2, ["row differs"])
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)


def test_paper_bands_trip_on_a_swapped_ranking():
    ts = TRACE_SEEDS[0]
    rows = [reference_row(ts, "off/4000", w, s) for w in WORKLOADS for s in DES_SCHEMES]
    base = len(paper_band_misses(rows))
    swapped = []
    for r in rows:
        if r["workload"] == "vips" and r["scheme"] in ("tetris", "flip_n_write"):
            other = "flip_n_write" if r["scheme"] == "tetris" else "tetris"
            r = dict(reference_row(ts, "off/4000", "vips", other), scheme=r["scheme"])
        swapped.append(r)
    assert len(paper_band_misses(swapped)) > base


def test_speed_normalization_rescales_each_cell_by_its_adjacent_probes():
    meter = SpeedMeter(1000)
    ref = REFERENCE_S_PER_ITER * 1000
    meter.durations = [ref, 2 * ref, 2 * ref]      # the host halves its speed
    meter.cells = [(0, 1.5), (1, 2.0)]
    # cell 0: probes average 1.5 ref; cell 1: 2 ref; 0.5 s outside cells
    # at the median probe (2 ref).
    assert meter.normalize(4.0) == pytest.approx(1.0 + 1.0 + 0.25)


def test_window_latency_drops_probe_waits_and_rescales():
    ref = REFERENCE_S_PER_ITER * 100
    starts, waits = [0.2, 0.5, 5.0], [0.01] * 3
    assert without_probes(0.0, 1.0, starts, waits) == pytest.approx(0.98)
    # a wait cut by the window's edge counts only inside it
    assert without_probes(0.205, 1.0, starts, waits) == pytest.approx(0.795 - 0.005 - 0.01)
    durations = [ref, 2 * ref, 4 * ref]
    # the speed is the median probe within SPEED_WINDOW_S of the window
    assert normalize_window(0.0, 1.0, starts, waits, durations, 100) == pytest.approx(0.98 / 1.5)
    assert normalize_window(4.5, 4.6, starts, waits, durations, 100) == pytest.approx(0.1 / 4)
    # no probe that near: the median of all of them
    assert normalize_window(10.0, 11.0, starts, waits, durations, 100) == pytest.approx(0.5)


def test_probes_run_in_a_sibling_process_that_is_stopped():
    meter = SpeedMeter(100)
    try:
        meter.sample()
        meter.sample()
        assert meter.sibling.proc.pid != os.getpid()
    finally:
        meter.close()
    assert meter.sibling.proc.returncode == 0
    assert len(meter.durations) == 2 and all(d > 0 for d in meter.durations)
    assert all(w >= d for w, d in zip(meter.waits[1:], meter.durations[1:]))

