"""Fastpath lane contracts: analytic speedup + vectorized kernel gates.

``make bench-fastpath`` runs the full Fig 11-14 grid (all eight PARSEC
workloads x the baseline + four compared schemes) once through the
discrete-event simulator, then ``FASTPATH_REPEATS`` times through the
analytic lane, and enforces two contracts through the timing gate of
``_bench_utils`` (``judge``: median ratio, noise floor, verdict):

* **Analytic lane >= 10x.**  Each repeat's speedup is the DES phase's
  wall clock over that repeat's.  Every repeat starts from a copy of
  the DES phase's result store, so it executes all 40 analytic cells
  itself while the differential recheck's DES references are cache hits
  -- the repeat's wall clock is the analytic lane's own cost.  Every
  cell must stay inside the envelope with zero recheck divergences.
  Nine repeats is the fewest for which the distribution-free 95%
  interval of the median leaves out the slowest and the fastest repeat,
  so one phase slowed by the host cannot decide the verdict.
* **Vectorized read stage >= 3x.**  The numpy ``read_stage_batch``
  kernel must beat the pure-Python scalar reference
  (``REPRO_NO_VECTOR=1``) by at least 3x on a trace-sized payload
  matrix, while staying bit-identical to it.

The grid is pinned (workloads, schemes, requests, seed) so the numbers
are comparable across commits; the stores are throwaway temp
directories so results never alias the user's store.  Emits
``BENCH_fastpath.json`` at the repo root (DES events/s, per-cell wall
clocks, per-lane cell counts, host cpu count) plus the usual table under
``benchmarks/out/``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from _bench_utils import SCHEMES, SEED, Verdict, emit, judge, paired_ratios

from repro.core.read_stage import read_stage_batch
from repro.parallel import ResultCache, SweepEngine, code_salt
from repro.trace.workloads import WORKLOAD_NAMES
from repro.util import kernelstats

WORKLOADS = tuple(WORKLOAD_NAMES)
REQUESTS = 4000
FASTPATH_REPEATS = 9
MIN_SWEEP_SPEEDUP = 10.0

# Trace-sized payload matrix for the kernel micro-bench: a 4000-request
# workload writes ~4-8k lines of 8 data units each.
KERNEL_WRITES = 8192
KERNEL_UNITS = 8
KERNEL_PAIRS = 6
MIN_KERNEL_SPEEDUP = 3.0

OUT_PATH = Path(__file__).parent.parent / "BENCH_fastpath.json"


def _engine(store: Path, **kwargs) -> SweepEngine:
    return SweepEngine(
        requests_per_core=REQUESTS, root_seed=SEED, workers=1,
        cache=ResultCache(store), **kwargs,
    )


def _measure_sweep() -> tuple[dict, Verdict]:
    with tempfile.TemporaryDirectory(prefix="bench-fastpath-") as tmp:
        des_store = Path(tmp) / "des"
        des = _engine(des_store, fastpath="off").run(SCHEMES, WORKLOADS)
        des.raise_errors()
        repeats = []
        for i in range(FASTPATH_REPEATS):
            store = Path(tmp) / f"fast{i}"
            shutil.copytree(des_store, store)
            fast = _engine(
                store, fastpath="auto",
                certificate_path=Path(tmp) / f"certificate{i}.json",
            ).run(SCHEMES, WORKLOADS)
            fast.raise_errors()
            repeats.append(fast.stats)

    cells = des.stats.cells
    for stats in repeats:
        assert stats.fastpath_cells == cells, (
            f"auto mode priced {stats.fastpath_cells} of {cells} cells "
            f"analytically at the paper's operating point"
        )
        assert stats.recheck_divergences == 0, (
            "differential recheck diverged from the DES"
        )
        assert stats.executed == cells, f"repeat replayed cached rows: {stats}"
        assert stats.cache_hits == stats.recheck_samples, (
            f"recheck rows not served from the DES phase's store: {stats}"
        )
    verdict = judge(
        [des.stats.wall_s / s.wall_s for s in repeats],
        MIN_SWEEP_SPEEDUP, upper=False,
    )
    events = sum(r.events for r in des.rows)
    fast_wall = sorted(s.wall_s for s in repeats)
    sweep = {
        "cells": cells,
        "des_wall_s": round(des.stats.wall_s, 4),
        "des_wall_s_per_cell": round(des.stats.wall_s / cells, 4),
        "des_events": events,
        "des_events_per_s": round(events / des.stats.wall_s, 1),
        "fastpath_repeats": FASTPATH_REPEATS,
        "fastpath_wall_s": [round(w, 4) for w in fast_wall],
        "fastpath_wall_s_per_cell": round(
            fast_wall[len(fast_wall) // 2] / cells, 4
        ),
        "fastpath_cells": repeats[0].fastpath_cells,
        "des_cells": repeats[0].des_cells,
        "recheck_samples": repeats[0].recheck_samples,
        "recheck_divergences": repeats[0].recheck_divergences,
        **_gate_fields(verdict),
    }
    return sweep, verdict


def _gate_fields(verdict: Verdict) -> dict:
    return {
        "speedup": round(verdict.median, 2),
        "speedup_iqr": [round(verdict.q1, 2), round(verdict.q3, 2)],
        "speedup_floor": round(verdict.floor, 2),
        "verdict": verdict.verdict,
    }


def _measure_kernel() -> tuple[dict, Verdict]:
    rng = np.random.default_rng(SEED)
    shape = (KERNEL_WRITES, KERNEL_UNITS)
    old = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    new = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    flip = rng.integers(0, 2, size=shape).astype(bool)
    payload = (old, flip, new)

    def leg(no_vector: str):
        def run(args: tuple) -> float:
            os.environ["REPRO_NO_VECTOR"] = no_vector
            t0 = time.perf_counter()
            read_stage_batch(*args)
            return time.perf_counter() - t0
        return run

    with mock.patch.dict(os.environ):  # restores REPRO_NO_VECTOR on exit
        os.environ["REPRO_NO_VECTOR"] = ""
        before = kernelstats.snapshot()
        vec = read_stage_batch(*payload)
        os.environ["REPRO_NO_VECTOR"] = "1"
        ref = read_stage_batch(*payload)
        after = kernelstats.snapshot()
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["scalar"] == before["scalar"] + 1
        ratios = paired_ratios(
            leg(""), leg("1"), lambda _pair: payload, KERNEL_PAIRS
        )

    for field in ("flip", "physical", "n_set", "n_reset"):
        assert np.array_equal(getattr(vec, field), getattr(ref, field)), (
            f"vectorized read stage diverged from scalar reference: {field}"
        )
    verdict = judge(ratios, MIN_KERNEL_SPEEDUP, upper=False)
    return {
        "writes": KERNEL_WRITES,
        "units_per_write": KERNEL_UNITS,
        "pairs": KERNEL_PAIRS,
        **_gate_fields(verdict),
    }, verdict


def test_fastpath_contracts():
    sweep, sweep_verdict = _measure_sweep()
    kernel, kernel_verdict = _measure_kernel()

    doc = {
        "grid": {
            "workloads": list(WORKLOADS),
            "schemes": list(SCHEMES),
            "requests_per_core": REQUESTS,
            "seed": SEED,
            "workers": 1,
        },
        "host": {"cpu_count": os.cpu_count()},
        "code_version": code_salt()[:16],
        "sweep": sweep,
        "read_stage_batch": kernel,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    sweep_gate = sweep_verdict.describe("sweep speedup")
    kernel_gate = kernel_verdict.describe("read_stage_batch speedup")
    lines = [
        "fastpath lane contracts",
        "=======================",
        f"grid: {len(WORKLOADS)} workloads x {len(SCHEMES)} schemes "
        f"@ {REQUESTS} req/core ({sweep['cells']} cells)",
        f"DES-only wall:    {sweep['des_wall_s']:.2f}s "
        f"({sweep['des_events_per_s']:,.0f} events/s)",
        f"fastpath wall:    {', '.join(f'{w:.2f}' for w in sweep['fastpath_wall_s'])}s "
        f"({sweep['fastpath_cells']} analytic / {sweep['des_cells']} DES, "
        f"{sweep['recheck_samples']} rechecked, "
        f"{sweep['recheck_divergences']} divergences)",
        sweep_gate,
        "",
        f"read_stage_batch {KERNEL_WRITES}x{KERNEL_UNITS}, vector vs scalar, "
        f"bit-identical",
        kernel_gate,
        f"wrote {OUT_PATH.name}",
    ]
    emit("bench_fastpath", "\n".join(lines))

    assert sweep_verdict.verdict == "pass", sweep_gate
    assert kernel_verdict.verdict == "pass", kernel_gate


if __name__ == "__main__":
    test_fastpath_contracts()
