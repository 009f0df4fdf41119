"""Tests for the percentile and open-loop helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    MIN_TAIL,
    OpenLoopSample,
    arrival_times,
    describe,
    highest_percentile,
    percentile,
    samples_beyond,
)


def test_p99_of_eight_samples_is_rejected():
    samples = [0.1 * i for i in range(1, 9)]
    with pytest.raises(ValueError, match="need at least 10"):
        percentile(samples, 99)
    assert highest_percentile(samples) is None


def test_p90_needs_one_hundred_samples():
    assert samples_beyond(99, 90) < MIN_TAIL
    assert samples_beyond(100, 90) == MIN_TAIL
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == 89


def test_highest_percentile_picks_the_largest_that_qualifies():
    samples = list(range(1, 101))
    assert highest_percentile(samples) == (90.0, 90)
    assert highest_percentile(list(range(1000))) == (99.0, 989)
    assert highest_percentile(list(range(40)))[0] == 75.0
    assert highest_percentile(list(range(20)))[0] == 50.0
    assert highest_percentile(list(range(19))) is None


def test_percentile_is_order_independent():
    samples = list(range(200))
    shuffled = samples[:]
    random.Random(3).shuffle(shuffled)
    assert percentile(shuffled, 90) == percentile(samples, 90) == 179


def test_describe_prints_the_sample_count():
    text = describe([1.0] * 8)
    assert "n=8" in text and "p99" not in text and "p90" not in text
    assert "p90=" in describe([float(i) for i in range(100)])


def test_open_loop_latency_counts_from_the_due_time():
    stalled = OpenLoopSample(due=1.0, sent=1.5, first=1.6, done=2.0)
    assert stalled.latency == pytest.approx(1.0)
    assert stalled.first_result == pytest.approx(0.6)
    assert stalled.late == pytest.approx(0.5)
    early = OpenLoopSample(due=1.0, sent=0.999, first=1.1, done=1.2)
    assert early.late == 0.0


def test_arrival_schedule_is_evenly_spaced_at_the_rate():
    a = arrival_times(8.0, 200)
    assert len(a) == 200
    gaps = {round(y - x, 9) for x, y in zip(a, a[1:])}
    assert gaps == {0.125}
    assert 0.0 < a[0] and a[-1] < 25.0  # count / rate seconds
    with pytest.raises(ValueError):
        arrival_times(0.0, 1)
