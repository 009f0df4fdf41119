"""Percentile and open-loop timing helpers.

Two rules from the benchmark's method live here so that they are tested
once and used everywhere:

* a percentile is reported only when at least ``MIN_TAIL`` samples lie
  beyond it — the p99 of 8 samples is the maximum, not a tail estimate;
* an open-loop request is timed from when it was *due*, not from when
  the generator got round to sending it, and the generator's own
  lateness is reported beside the latencies.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie beyond the nearest-rank ``pct``."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    return n - math.ceil(n * pct / 100.0)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; raises unless ``MIN_TAIL`` samples lie beyond."""
    values = sorted(samples)
    n = len(values)
    if samples_beyond(n, pct) < MIN_TAIL:
        raise ValueError(
            f"p{pct:g} of {n} samples has {max(0, samples_beyond(n, pct))} "
            f"beyond it; need at least {MIN_TAIL}"
        )
    return values[math.ceil(n * pct / 100.0) - 1]


def highest_percentile(samples, candidates=(99.0, 90.0, 75.0, 50.0)):
    """``(pct, value)`` for the highest candidate with enough tail samples.

    Returns ``None`` when not even the lowest candidate qualifies.
    """
    n = len(samples)
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(n, pct) >= MIN_TAIL:
            return pct, percentile(samples, pct)
    return None


def describe(samples) -> str:
    """One-line summary: median, highest qualifying percentile, count."""
    n = len(samples)
    if n == 0:
        return "n=0"
    top = highest_percentile(samples)
    tail = f", p{top[0]:g}={top[1]:.4g}" if top else ""
    return f"p50={statistics.median(samples):.4g}{tail}, n={n}"


@dataclass(frozen=True)
class OpenLoopSample:
    """One open-loop request: when it was due, sent, first answered, done."""

    due: float
    sent: float
    first: float
    done: float

    @property
    def latency(self) -> float:
        """Due-to-done: includes any wait a generator stall imposed."""
        return self.done - self.due

    @property
    def first_result(self) -> float:
        return self.first - self.due

    @property
    def late(self) -> float:
        """How late the generator sent this request (never negative)."""
        return max(0.0, self.sent - self.due)


def arrival_times(rate_per_s: float, count: int) -> list[float]:
    """``count`` evenly spaced arrival offsets (seconds) at ``rate_per_s``.

    The schedule is fixed before the run starts, so a slow system cannot
    slow the arrivals down.  Even spacing keeps the queueing a schedule
    sees independent of the seed, which only decides what each job asks.
    """
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    return [(i + 0.5) / rate_per_s for i in range(count)]
