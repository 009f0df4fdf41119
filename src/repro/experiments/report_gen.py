"""One-shot report generator: every experiment into a single Markdown file.

``tetris-write report --out REPORT.md`` runs the complete evaluation —
workload characterization, write units, the four full-system figures,
and the ablation sweeps — at a configurable scale, and renders a
self-contained Markdown report with the paper's reference numbers
alongside the measurements.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import format_table
from repro.config import SystemConfig, default_config
from repro.experiments import ablation
from repro.experiments.fig03 import measure_bit_profile
from repro.experiments.fig10 import measure_write_units
from repro.experiments.runner import BASELINE_SCHEME, run_schemes_on_workloads
from repro.schemes import COMPARED_SCHEMES
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import WORKLOAD_NAMES

__all__ = ["generate_report"]

SCHEMES = (BASELINE_SCHEME, *COMPARED_SCHEMES)


def _code(text: str) -> str:
    return f"```\n{text}\n```\n"


def generate_report(
    out_path: str | Path,
    *,
    requests_per_core: int = 2000,
    seed: int = 20160816,
    config: SystemConfig | None = None,
) -> Path:
    """Run everything and write the Markdown report; returns the path."""
    cfg = config if config is not None else default_config()
    traces = {
        name: generate_trace(name, requests_per_core, seed=seed)
        for name in WORKLOAD_NAMES
    }

    sections: list[str] = [
        "# Tetris Write — reproduction report\n",
        f"Operating point: Table II defaults, {requests_per_core} "
        f"requests/core, seed {seed}.\n",
    ]

    # ------------------------------------------------------- Fig 3
    rows3 = [measure_bit_profile(t) for t in traces.values()]
    sections.append("## Figure 3 — bit-writes per 64-bit data unit\n")
    sections.append(_code(format_table(
        ["workload", "SET", "RESET", "total"],
        [[r.workload, r.mean_set, r.mean_reset, r.total] for r in rows3],
    )))
    sections.append(
        f"Average {arithmetic_mean([r.mean_set for r in rows3]):.2f} SET + "
        f"{arithmetic_mean([r.mean_reset for r in rows3]):.2f} RESET "
        "(paper: 6.7 + 2.9).\n"
    )

    # ------------------------------------------------------- Fig 10
    rows10 = [measure_write_units(t, cfg) for t in traces.values()]
    sections.append("## Figure 10 — write units per cache-line write\n")
    sections.append(_code(format_table(
        ["workload", "DCW", "FNW", "2SW", "3SW", "Tetris"],
        [[r.workload, r.dcw, r.flip_n_write, r.two_stage, r.three_stage,
          r.tetris] for r in rows10],
    )))

    # ------------------------------------------------- Figs 11-14
    grid = run_schemes_on_workloads(
        SCHEMES, WORKLOAD_NAMES, config=cfg,
        requests_per_core=requests_per_core, seed=seed, traces=traces,
    )
    base = {r.workload: r for r in grid if r.scheme == BASELINE_SCHEME}
    for metric, title, fig in (
        ("read_latency", "read latency (normalized)", "Figure 11"),
        ("write_latency", "write latency (normalized)", "Figure 12"),
        ("ipc_improvement", "IPC improvement", "Figure 13"),
        ("running_time", "running time (normalized)", "Figure 14"),
    ):
        rows = []
        means = {s: [] for s in COMPARED_SCHEMES}
        for wl in WORKLOAD_NAMES:
            row = [wl]
            for s in COMPARED_SCHEMES:
                r = next(x for x in grid if x.workload == wl and x.scheme == s)
                v = r.normalized(base[wl])[metric]
                means[s].append(v)
                row.append(v)
            rows.append(row)
        rows.append(["AVERAGE"] + [arithmetic_mean(means[s]) for s in COMPARED_SCHEMES])
        sections.append(f"## {fig} — {title}\n")
        sections.append(_code(format_table(
            ["workload", "FNW", "2SW", "3SW", "Tetris"], rows
        )))

    # ------------------------------------------------- ablations
    dedup = traces["dedup"]
    sections.append("## Ablations\n")
    for name, sweep in (
        ("power budget", ablation.sweep_power_budget),
        ("time asymmetry K", ablation.sweep_time_asymmetry),
        ("power asymmetry L", ablation.sweep_power_asymmetry),
        ("mobile write-unit width", ablation.sweep_write_unit_width),
    ):
        points = sweep(dedup)
        sections.append(f"### {name}\n")
        sections.append(_code(format_table(
            ["value", "mean units", "result", "subresult"],
            [[p.value, p.mean_units, p.mean_result, p.mean_subresult]
             for p in points],
        )))

    # ------------------------------------------------- extensions
    sections.append("## Extensions (beyond the paper)\n")
    from repro.analysis.power_util import power_utilization
    from repro.config import MemCtrlConfig

    util_rows = []
    for wl in ("blackscholes", "dedup", "vips"):
        t = traces[wl]
        n_set = t.write_counts[..., 0].astype(int)
        n_reset = t.write_counts[..., 1].astype(int)
        util_rows.append([
            wl,
            100 * float(power_utilization(n_set, n_reset, "flip_n_write").mean()),
            100 * float(power_utilization(n_set, n_reset, "tetris").mean()),
        ])
    sections.append("### Power-budget utilization (§III motivation)\n")
    sections.append(_code(format_table(
        ["workload", "FNW %", "Tetris %"], util_rows
    )))

    pause_cfg = cfg.replace(memctrl=MemCtrlConfig(write_pausing=True))
    pause_rows = []
    for scheme in ("dcw", "tetris"):
        base = run_schemes_on_workloads(
            (scheme,), ("dedup",), config=cfg,
            requests_per_core=requests_per_core, seed=seed, traces=traces,
        )[0]
        paused = run_schemes_on_workloads(
            (scheme,), ("dedup",), config=pause_cfg,
            requests_per_core=requests_per_core, seed=seed, traces=traces,
        )[0]
        pause_rows.append([
            scheme, base.read_latency_ns, paused.read_latency_ns,
        ])
    sections.append("### Write pausing (refs [23-24], dedup)\n")
    sections.append(_code(format_table(
        ["scheme", "read lat", "read lat w/ pausing"], pause_rows
    )))

    sections.append(
        "Full extension results (MLC, subarrays, SJF drains, endurance,"
        " variation, line-size scaling, seed stability) live in"
        " `benchmarks/out/` after `pytest benchmarks/ --benchmark-only`;"
        " see EXPERIMENTS.md for the curated summary.\n"
    )

    out = Path(out_path)
    out.write_text("\n".join(sections))
    return out
