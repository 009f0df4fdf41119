#!/usr/bin/env python
"""Scheme comparison across the eight PARSEC workloads (mini Figs 10-14).

Generates a calibrated synthetic trace per workload, runs the full-system
simulator under every scheme, and prints the paper's four normalized
metrics plus the measured write-unit counts.

Run:  python examples/scheme_comparison.py [requests_per_core]
"""

import sys

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import ascii_bar_chart, format_table
from repro.experiments.runner import BASELINE_SCHEME, run_schemes_on_workloads
from repro.schemes import COMPARED_SCHEMES
from repro.trace.workloads import WORKLOAD_NAMES

SCHEMES = (BASELINE_SCHEME, *COMPARED_SCHEMES)

requests = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
print(f"running {len(WORKLOAD_NAMES)} workloads x {len(SCHEMES)} schemes "
      f"at {requests} requests/core ...\n")

results = run_schemes_on_workloads(SCHEMES, requests_per_core=requests)
base = {r.workload: r for r in results if r.scheme == BASELINE_SCHEME}

for metric, title, better in (
    ("read_latency", "read latency vs DCW (Fig 11)", "lower"),
    ("write_latency", "write latency vs DCW (Fig 12)", "lower"),
    ("ipc_improvement", "IPC improvement vs DCW (Fig 13)", "higher"),
    ("running_time", "running time vs DCW (Fig 14)", "lower"),
):
    rows = []
    averages = {s: [] for s in SCHEMES[1:]}
    for wl in WORKLOAD_NAMES:
        row = [wl]
        for s in SCHEMES[1:]:
            r = next(x for x in results if x.workload == wl and x.scheme == s)
            v = r.normalized(base[wl])[metric]
            averages[s].append(v)
            row.append(v)
        rows.append(row)
    rows.append(["AVERAGE"] + [arithmetic_mean(averages[s]) for s in SCHEMES[1:]])
    print(format_table(
        ["workload", "FNW", "2SW", "3SW", "Tetris"], rows,
        title=f"{title}  ({better} is better)",
    ))
    print()

units = {
    s: arithmetic_mean(
        [r.mean_write_units for r in results if r.scheme == s]
    )
    for s in SCHEMES
}
print(ascii_bar_chart(units, title="average write units per cache-line write (Fig 10)"))
