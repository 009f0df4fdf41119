"""The paired timing gate behind every wall-clock contract in benchmarks/.

Fake legs return preset durations, so nothing here reads a clock: the
tests pin the alternation order, the median and noise-floor arithmetic
and each verdict, deterministically.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "_bench_utils",
    Path(__file__).resolve().parent.parent / "benchmarks" / "_bench_utils.py",
)
if _SPEC.name in sys.modules:
    bench_utils = sys.modules[_SPEC.name]
else:
    bench_utils = importlib.util.module_from_spec(_SPEC)
    sys.modules[_SPEC.name] = bench_utils  # dataclasses resolve it there
    _SPEC.loader.exec_module(bench_utils)

judge = bench_utils.judge
median_ci = bench_utils.median_ci
paired_ratios = bench_utils.paired_ratios


def _preset(name, durations, log):
    """A fake leg: logs ``(name, input)`` and returns its next duration."""
    it = iter(durations)

    def leg(x):
        log.append((name, x))
        return next(it)

    return leg


class TestPairedRatios:
    def test_legs_alternate_and_share_each_pair_input(self):
        log = []
        paired_ratios(
            _preset("base", [1.0] * 4, log),
            _preset("test", [1.0] * 4, log),
            lambda i: f"input{i}",
            4,
        )
        assert log == [
            ("base", "input0"), ("test", "input0"),
            ("test", "input1"), ("base", "input1"),
            ("base", "input2"), ("test", "input2"),
            ("test", "input3"), ("base", "input3"),
        ]

    def test_ratio_is_test_over_base_per_pair(self):
        log = []
        ratios = paired_ratios(
            _preset("base", [2.0, 4.0, 1.0], log),
            _preset("test", [3.0, 2.0, 5.0], log),
            lambda i: i,
            3,
        )
        assert ratios == [1.5, 0.5, 5.0]

    def test_builds_one_input_per_pair(self):
        built = []

        def make_input(i):
            built.append(i)
            return i

        paired_ratios(lambda x: 1.0, lambda x: 1.0, make_input, 5)
        assert built == [0, 1, 2, 3, 4]


class TestMedianCI:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_unbounded_below_six_samples(self, n):
        # [min, max] covers the median with 1 - 2/2**n < 95% for n <= 5.
        assert median_ci(range(n)) == (-math.inf, math.inf)

    @pytest.mark.parametrize(
        "n, ranks",
        [(6, (1, 6)), (10, (2, 9)), (20, (6, 15)), (100, (40, 61))],
    )
    def test_order_statistic_ranks(self, n, ranks):
        # Samples 1..n, shuffled: the interval is the pair of 1-based
        # ranks from the binomial table of the median's 95% CI.
        samples = [((7 * i) % n) + 1 for i in range(n)]
        assert sorted(samples) == list(range(1, n + 1))
        assert median_ci(samples) == ranks


class TestJudge:
    def test_median_quartiles_and_floor(self):
        v = judge([1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 0.8, 1.15, 1.0],
                  1.5, upper=True)
        assert v.n == 10
        assert v.median == pytest.approx(1.025)
        assert (v.q1, v.q3) == (pytest.approx(0.9625), pytest.approx(1.1375))
        # Ranks 2 and 9 of the sorted samples: 0.9 and 1.2.
        assert v.floor == pytest.approx(0.15)
        assert v.margin == pytest.approx(0.475)

    def test_pass(self):
        v = judge([1.000 + 0.001 * (i % 5) for i in range(20)], 1.02, upper=True)
        assert v.verdict == "pass"

    def test_fail(self):
        v = judge([1.100 + 0.001 * (i % 5) for i in range(20)], 1.02, upper=True)
        assert v.margin < 0 and v.floor < -v.margin
        assert v.verdict == "fail"

    def test_inconclusive_when_floor_is_wider_than_margin(self):
        # Median 1.015 sits inside the 2% bound, but the spread cannot
        # tell it from 1.03.
        v = judge([0.9, 0.95, 1.0, 1.01, 1.02, 1.03, 1.08, 1.13], 1.02,
                  upper=True)
        assert 0 < v.margin < v.floor
        assert v.verdict == "inconclusive"

    def test_inconclusive_on_a_clear_median_with_too_few_samples(self):
        v = judge([12.0, 12.1, 12.2, 12.3, 12.4], 10.0, upper=False)
        assert v.margin > 2 and v.floor == math.inf
        assert v.verdict == "inconclusive"

    def test_lower_bound_gate(self):
        assert judge([12.0, 12.5, 13.0, 12.2, 12.8, 12.4], 10.0,
                      upper=False).verdict == "pass"
        assert judge([8.0, 8.5, 9.0, 8.2, 8.8, 8.4], 10.0,
                     upper=False).verdict == "fail"

    def test_paired_fake_legs_end_to_end(self):
        # A test leg 10% slower than base in every pair fails a 2% gate
        # and passes a 5x one, whichever leg runs first.
        log = []
        ratios = paired_ratios(
            _preset("base", [1.0] * 12, log),
            _preset("test", [1.1] * 12, log),
            lambda i: i,
            12,
        )
        assert judge(ratios, 1.02, upper=True).verdict == "fail"
        v = judge(ratios, 5.0, upper=True)
        assert v.verdict == "pass" and v.floor == 0.0

    def test_describe_names_the_verdict(self):
        v = judge([1.0] * 6, 1.02, upper=True)
        text = v.describe("default write()")
        assert text.startswith("default write(): median 1.0000 over 6")
        assert text.endswith("bound <= 1.02 -> pass")
