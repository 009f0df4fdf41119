"""Shared helpers for the experiment benches (imported as a module)."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.experiments.runner import BASELINE_SCHEME
from repro.schemes import COMPARED_SCHEMES

OUT_DIR = Path(__file__).parent / "out"

SCHEMES = (BASELINE_SCHEME, *COMPARED_SCHEMES)
REQUESTS_PER_CORE = 2000
SEED = 20160816


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


# ----------------------------------------------------------------------
# Timing gates.  Every wall-clock contract in benchmarks/ is judged here:
# a gate is a set of ratios (one per pair of timed legs), and its verdict
# comes from their median and a distribution-free confidence interval of
# that median, never from one run or from a best-of-N minimum.
# ----------------------------------------------------------------------

def paired_ratios(
    base: Callable[[Any], float],
    test: Callable[[Any], float],
    make_input: Callable[[int], Any],
    pairs: int,
) -> list[float]:
    """Per-pair ``test / base`` time ratios over alternating pairs.

    Pair ``i`` builds one input with ``make_input(i)`` and runs both legs
    on it: ``base`` first on even pairs, ``test`` first on odd ones, so
    host-speed drift and any first-leg penalty (cold caches, lazy set-up)
    land on both sides equally.  A leg times only its own work and
    returns seconds, so set-up it does before its timed region stays out
    of the ratio.
    """
    ratios = []
    for i in range(pairs):
        x = make_input(i)
        if i % 2:
            t = test(x)
            b = base(x)
        else:
            b = base(x)
            t = test(x)
        ratios.append(t / b)
    return ratios


def median_ci(samples: Sequence[float]) -> tuple[float, float]:
    """Distribution-free 95% confidence interval of the median.

    The order-statistic interval ``[x(l), x(n+1-l)]`` covers the median
    with probability ``1 - 2 P(Binomial(n, 1/2) < l)``; ``l`` is the
    largest rank that keeps this at or above 95%.  Below six samples no
    such interval exists and the result is unbounded.
    """
    xs = sorted(samples)
    n = len(xs)
    total = 1 << n
    below = 0  # sum of C(n, k) for k < l
    rank = 0
    for k in range(n):
        below += comb(n, k)
        if 40 * below > total:  # 2 * P(B <= k) > 5%
            break
        rank = k + 1
    if rank == 0:
        return float("-inf"), float("inf")
    return xs[rank - 1], xs[n - rank]


@dataclass(frozen=True)
class Verdict:
    """A timing gate's outcome over ``n`` ratios.

    ``floor`` is the half-width of :func:`median_ci`, the run-to-run
    noise the median itself carries.  The margin is how far the median
    sits inside the bound (negative when outside).  A floor wider than
    the margin is ``inconclusive``: the measurement cannot tell pass from
    fail, and a gate that cannot tell fails.
    """

    median: float
    q1: float
    q3: float
    floor: float
    bound: float
    upper: bool  # True: the ratio must stay at or under ``bound``
    n: int

    @property
    def margin(self) -> float:
        return self.bound - self.median if self.upper else self.median - self.bound

    @property
    def verdict(self) -> str:
        if self.floor > abs(self.margin):
            return "inconclusive"
        return "pass" if self.margin >= 0 else "fail"

    def describe(self, name: str) -> str:
        rel = "<=" if self.upper else ">="
        return (
            f"{name}: median {self.median:.4f} over {self.n} "
            f"(IQR {self.q1:.4f}-{self.q3:.4f}), noise floor "
            f"+/-{self.floor:.4f}, bound {rel} {self.bound:g} -> {self.verdict}"
        )


def judge(ratios: Sequence[float], bound: float, *, upper: bool) -> Verdict:
    """Gate ``ratios`` against ``bound`` (see :class:`Verdict`)."""
    lo, hi = median_ci(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return Verdict(
        median=statistics.median(ratios),
        q1=q1,
        q3=q3,
        floor=(hi - lo) / 2,
        bound=bound,
        upper=upper,
        n=len(ratios),
    )
