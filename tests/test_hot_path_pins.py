"""Exact values pinned for the inner loops of both lanes.

The analytic lane's ``model_cell`` and the DES's per-completion
statistics are written for speed (inlined accumulator updates, a
next-write index, shared per-trace columns), and the sweep rows only
carry means.  These values were recorded before those loops were
tuned; matching them to the last bit shows the tuning changed no
arithmetic: every moment of every latency accumulator, every histogram
bin, and every ``model_cell`` output.
"""

import dataclasses
import functools

import pytest

from repro.config import PCMOrganization, default_config
from repro.experiments.fullsystem import run_fullsystem
from repro.fastpath.pricer import model_cell, price_write_service
from repro.trace.synthetic import generate_trace

SEED = 20160816
CONFIG = default_config()

# (workload, scheme) -> (read_latency_ns, write_latency_ns, ipc,
# runtime_ns, forwarded_reads) at 400 requests/core.
MODEL_CELL = {
    ("dedup", "dcw"): (1257.5694164989939, 16105.397689768977, 1.2671401242387357, 484309.5, 0),
    ("dedup", "tetris"): (227.85613682092554, 6745.721947194719, 2.7524022882566506, 222964.5, 0),
    ("vips", "dcw"): (1433.8727180527383, 13867.677524429968, 0.46854837170236324, 419088.0, 3),
    ("vips", "tetris"): (281.428752535497, 3864.4474755700326, 1.5863422830991207, 123783.5, 2),
}

# ferret x tetris, 400 requests/core, 100 warmup completions.
DES_SUMMARIES = {
    "read_latency": {"count": 912, "mean": 239.17845394736844, "std": 554.0566875340731, "min": 1.0, "max": 3237.0},
    "write_latency": {"count": 588, "mean": 4426.111819727891, "std": 2550.4709635684376, "min": 582.5, "max": 16940.25},
    "read_wait": {"count": 912, "mean": 189.23218201754392, "std": 554.0359409326965, "min": 0.0, "max": 3187.0},
    "write_wait": {"count": 588, "mean": 3813.6288265306134, "std": 2551.138932380292, "min": 0.0, "max": 16357.75},
}
DES_TOTALS = {
    "read_latency": 218130.75,
    "write_latency": 2602553.75,
    "read_wait": 172579.75,
    "write_wait": 2242413.75,
}
# Non-empty bins only: {bin index: count}.
DES_HISTOGRAMS = {
    "read_hist": {0: 1, 1: 790, 2: 3, 4: 2, 5: 2, 6: 1, 7: 3, 8: 3, 9: 4, 11: 5, 12: 2, 13: 2, 14: 1, 15: 1, 17: 1, 18: 1, 19: 1, 20: 1, 21: 2, 22: 4, 23: 1, 24: 2, 25: 4, 26: 6, 27: 3, 28: 1, 29: 3, 30: 4, 31: 4, 32: 3, 33: 4, 34: 4, 35: 4, 36: 4, 37: 6, 38: 2, 39: 3, 41: 1, 42: 4, 43: 3, 44: 1, 45: 1, 47: 1, 49: 1, 50: 1, 51: 2, 54: 1, 56: 1, 59: 1, 60: 1, 61: 1, 62: 3, 64: 1},
    "write_hist": {2: 5, 3: 4, 4: 2, 5: 9, 6: 9, 7: 15, 8: 17, 9: 21, 10: 18, 11: 30, 12: 26, 13: 23, 14: 29, 15: 27, 16: 26, 17: 21, 18: 18, 19: 20, 20: 17, 21: 13, 22: 11, 23: 11, 24: 12, 25: 9, 26: 4, 27: 10, 28: 12, 29: 13, 30: 14, 31: 19, 32: 10, 33: 12, 34: 13, 35: 8, 36: 6, 37: 6, 38: 9, 39: 7, 40: 10, 41: 8, 42: 4, 43: 3, 44: 2, 45: 3, 46: 1, 47: 3, 48: 1, 49: 3, 53: 1, 55: 2, 57: 1, 58: 1, 59: 2, 65: 1, 66: 1, 70: 1, 75: 1, 76: 2, 84: 1},
}


@functools.cache
def _trace(workload):
    return generate_trace(workload, requests_per_core=400, seed=SEED)


@pytest.mark.parametrize("key", sorted(MODEL_CELL), ids="-".join)
def test_model_cell_outputs_are_pinned(key):
    workload, scheme = key
    trace = _trace(workload)
    service_ns = price_write_service(trace, scheme, CONFIG).service_ns
    got = model_cell(trace, service_ns, CONFIG)
    assert got == MODEL_CELL[key]


def test_model_cell_reuses_a_trace_without_carrying_state():
    """Repeated and interleaved cells on one trace give the pinned
    values: the per-trace columns shared between cells are read-only."""
    trace = _trace("vips")
    for scheme in ("tetris", "dcw", "tetris"):
        service_ns = price_write_service(trace, scheme, CONFIG).service_ns
        got = model_cell(trace, service_ns, CONFIG)
        assert got == MODEL_CELL[("vips", scheme)]


def test_model_cell_keys_shared_columns_on_the_timing_parameters():
    """The same trace under another bank count is a different model."""
    trace = _trace("dedup")
    ranks = CONFIG.replace(organization=PCMOrganization(num_ranks=2))
    service_ns = price_write_service(trace, "tetris", CONFIG).service_ns
    got = model_cell(trace, service_ns, CONFIG)
    assert got == MODEL_CELL[("dedup", "tetris")]
    got_ranks = model_cell(trace, service_ns, ranks)
    fresh = dataclasses.replace(trace)  # same records, another object
    want_ranks = model_cell(fresh, service_ns, ranks)
    assert got_ranks == want_ranks
    assert got_ranks != got


def test_des_controller_stats_are_pinned():
    result = run_fullsystem(
        _trace("ferret"), "tetris", CONFIG, warmup_requests=100
    )
    stats = result.controller
    assert (result.events, stats.completed_reads, stats.completed_writes) == (
        6069, 988, 612,
    )
    for name, summary in DES_SUMMARIES.items():
        assert getattr(stats, name).summary() == summary, name
        assert getattr(stats, name).total == DES_TOTALS[name], name
    for name, bins in DES_HISTOGRAMS.items():
        counts = getattr(stats, name).counts
        assert {int(i): int(counts[i]) for i in counts.nonzero()[0]} == bins, name
