"""§III motivation — power-budget utilization per scheme.

The paper's core observation: existing schemes reserve the worst-case
current for every write unit while the actual draw is tiny (9.6 changed
bits per 64), so "the current is often excessively supplied but is not
used effectively" — it pins Flip-N-Write at ≈ 30 % in its bit-count
metric.  This bench computes the time-integrated utilization for every
scheme and workload: Tetris's packing is precisely a utilization
maximizer, and the measured gap between it and the baselines *is* the
paper's Figure-10 gap seen from the power side.
"""

import numpy as np

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.power_util import power_utilization
from repro.analysis.report import format_table

from _bench_utils import SCHEMES, emit


def test_power_utilization(benchmark, traces):
    def run():
        rows = []
        for name, trace in traces.items():
            n_set = trace.write_counts[..., 0].astype(int)
            n_reset = trace.write_counts[..., 1].astype(int)
            row = [name]
            for scheme in SCHEMES:
                util = power_utilization(n_set, n_reset, scheme)
                row.append(100.0 * float(util.mean()))
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    avg = ["AVERAGE"] + [
        arithmetic_mean([r[i] for r in rows]) for i in range(1, len(SCHEMES) + 1)
    ]
    table = format_table(
        ["workload", "DCW", "FNW", "2SW", "3SW", "Tetris"],
        rows + [avg],
        float_fmt="{:.1f}",
        title="Power-budget utilization per write, % (§III motivation)",
    )
    table += (
        "\nPaper anchor: FNW ~30% in the bit-count metric.  Caveats the"
        "\nnumbers surface: 2SW scores 'high' only because it programs"
        "\nall 512 cells (inflated useful work, not efficiency), and"
        "\nTetris's residual waste is the one-write-unit floor — a tiny"
        "\nblackscholes write still reserves a full Tset."
    )
    emit("power_utilization", table)

    by = {r[0]: dict(zip(SCHEMES, r[1:])) for r in rows}
    for wl, u in by.items():
        # Ordering: each scheme's tighter reservation raises utilization
        # (2SW excluded: programming all cells inflates its numerator).
        assert u["dcw"] < u["flip_n_write"] < u["three_stage"] < u["tetris"], wl
        assert u["tetris"] <= 100.0
    # The motivation's magnitude: baselines sit far below half-used,
    # Tetris recovers a multiple of the best baseline.
    assert avg[1] < 15.0          # DCW
    assert avg[2] < 30.0          # FNW
    assert avg[5] > 2 * avg[4]    # Tetris >> 3SW