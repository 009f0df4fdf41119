"""Correctness checks against the committed reference rows.

Every check returns a list of human-readable failure strings; the
benchmark counts each one against ``attempted`` so a single wrong row
shows up in ``ok_frac``.

* DES-lane rows must be byte-identical (canonical JSON) to the
  reference row of the same cell.
* Grid fastpath rows must match the reference DES row's pricing fields
  (units, energy) exactly and its timing fields within the program's
  ``FIELD_TOLERANCES``; ``events`` must be 0.
* The service must hand back exactly the rows the engine computes, so
  its fastpath rows must be byte-identical to the committed ``auto``
  lane rows (at the service's 400 requests/core the fastpath misses
  ``FIELD_TOLERANCES`` on light workloads, which ``fastpath_err_max``
  reports).
* The zoo's cross-paper gates: WIRE energy <= Flip-N-Write energy and
  PALP units <= Tetris units in every workload column.
"""

from __future__ import annotations

import json
import math

from reference import reference_row

TIMING_FIELDS = ("read_latency_ns", "write_latency_ns", "ipc", "runtime_ns")
PRICING_FIELDS = ("mean_write_units", "mean_write_energy")
HEAVY_WORKLOADS = ("dedup", "ferret", "vips")
LIGHT_WORKLOADS = ("blackscholes", "swaptions")


def canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _tolerances() -> dict:
    from repro.fastpath.agreement import FIELD_TOLERANCES

    return {t.field: t for t in FIELD_TOLERANCES}


def _cell(row: dict, trace_seed: int, row_set: str) -> str:
    return f"{row.get('workload')}/{row.get('scheme')}@{trace_seed}/{row_set}"


def check_identical(row: dict, trace_seed: int, row_set: str) -> list[str]:
    """The row must be byte-identical to the reference row of its cell."""
    try:
        ref = reference_row(trace_seed, row_set, row["workload"], row["scheme"])
    except KeyError:
        return [f"{_cell(row, trace_seed, row_set)}: no reference row"]
    if canonical(row) != canonical(ref):
        return [f"{_cell(row, trace_seed, row_set)}: row differs from the reference"]
    return []


def check_fastpath_row(row: dict, trace_seed: int, rpc: int) -> list[str]:
    """A fastpath row against the reference DES row of the same cell."""
    row_set = f"off/{rpc}"
    cell = _cell(row, trace_seed, row_set)
    try:
        ref = reference_row(trace_seed, row_set, row["workload"], row["scheme"])
    except KeyError:
        return [f"{cell}: no reference row"]
    failures = []
    for f in PRICING_FIELDS:
        if row[f] != ref[f]:
            failures.append(f"{cell}: {f} {row[f]!r} != reference {ref[f]!r}")
    tolerances = _tolerances()
    for f in TIMING_FIELDS:
        if not tolerances[f].accepts(float(row[f]), float(ref[f])):
            failures.append(f"{cell}: {f} {row[f]!r} outside tolerance of {ref[f]!r}")
    if row["events"] != 0:
        failures.append(f"{cell}: fastpath row reports {row['events']} events")
    return failures


def relative_errors(row: dict, trace_seed: int, rpc: int) -> list[float]:
    """Relative error of a fastpath row's timing fields vs the DES reference."""
    ref = reference_row(trace_seed, f"off/{rpc}", row["workload"], row["scheme"])
    return [
        abs(float(row[f]) - float(ref[f])) / abs(float(ref[f]))
        for f in TIMING_FIELDS
        if ref[f]
    ]


def check_grid(rows: list[dict], schemes, workloads) -> list[str]:
    """Every cell of the grid present exactly once, in grid order."""
    got = [(r["workload"], r["scheme"]) for r in rows]
    want = [(w, s) for w in workloads for s in schemes]
    if got == want:
        return []
    missing = sorted(set(want) - set(got))
    return [f"grid cell {w}/{s} missing" for w, s in missing] or [
        "grid rows out of order or duplicated"
    ]


def zoo_gates(rows: list[dict], workloads) -> list[str]:
    cells = {(r["workload"], r["scheme"]): r for r in rows}
    failures = []
    for w in workloads:
        try:
            wire, fnw = cells[(w, "wire")], cells[(w, "flip_n_write")]
            palp, tetris = cells[(w, "palp")], cells[(w, "tetris")]
        except KeyError:
            failures.append(f"{w}: zoo gate cells missing")
            continue
        if wire["mean_write_energy"] > fnw["mean_write_energy"] + 1e-9:
            failures.append(f"{w}: WIRE energy exceeds Flip-N-Write")
        if palp["mean_write_units"] > tetris["mean_write_units"] + 1e-9:
            failures.append(f"{w}: PALP units exceed Tetris")
    return failures


# ----------------------------------------------------------------------
# Paper claims (Figs 10-14) on the DES grid.
# ----------------------------------------------------------------------
def _ratio(a: float, b: float) -> float:
    return a / b if b else math.nan


def _normalized(row: dict, base: dict) -> dict[str, float]:
    """The paper's DCW normalizations (``ExperimentResult.normalized``)."""
    return {
        "read_latency": _ratio(row["read_latency_ns"], base["read_latency_ns"]),
        "write_latency": _ratio(row["write_latency_ns"], base["write_latency_ns"]),
        "ipc_improvement": _ratio(row["ipc"], base["ipc"]),
        "running_time": _ratio(row["runtime_ns"], base["runtime_ns"]),
    }


def paper_band_misses(rows: list[dict]) -> list[str]:
    """Fig 10-14 bands and rankings of ``repro.oracle.paper_claims`` missed.

    Applies the ledger the way ``tests/test_paper_claims.py`` does: the
    Fig 10 band per workload, the Fig 11-13 magnitudes on the heavy
    workloads, the light-workload write-latency nuance, and every
    ranking in every workload.
    """
    from repro.oracle.paper_claims import RANKINGS, band

    cells = {(r["workload"], r["scheme"]): r for r in rows}
    workloads = sorted({r["workload"] for r in rows})
    norm = {
        w: {
            s: _normalized(cells[(w, s)], cells[(w, "dcw")])
            for s in ("flip_n_write", "two_stage", "three_stage", "tetris")
        }
        for w in workloads
    }
    misses = []

    def expect(name: str, value: float, where: str) -> None:
        if not band(name).holds(value):
            misses.append(f"{where}: {band(name).describe(value)}")

    for w in workloads:
        expect("fig10_tetris_units", cells[(w, "tetris")]["mean_write_units"], w)
    for claim, metric in (
        ("fig11_tetris_runtime", "running_time"),
        ("fig12_tetris_ipc", "ipc_improvement"),
        ("fig13_tetris_read_latency", "read_latency"),
    ):
        heavy = [norm[w]["tetris"][metric] for w in HEAVY_WORKLOADS]
        expect(claim, sum(heavy) / len(heavy), "heavy workloads")
    for w in LIGHT_WORKLOADS:
        expect("light_write_latency_ratio", norm[w]["tetris"]["write_latency"], w)
    for metric, spec in sorted(RANKINGS.items()):
        ascending = spec["direction"] == "ascending"
        strict = spec.get("strict", True)
        for w in workloads:
            seq = [norm[w][s][metric] for s in spec["order"]]
            ok = all(
                (a < b if ascending else a > b) if strict
                else (a <= b if ascending else a >= b)
                for a, b in zip(seq, seq[1:])
            )
            # As in the test: even the last-ranked scheme beats DCW.
            last = seq[-1]
            ok = ok and (last < 1.0 + 1e-9 if ascending else last > 1.0 - 1e-9)
            if not ok:
                misses.append(f"{w}/{metric}: ranking {spec['order']} -> {seq}")
    return misses
