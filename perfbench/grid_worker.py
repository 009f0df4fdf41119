"""One cold-process repetition of a grid workload (or a set-up probe).

Usage (spawned by ``run.py``; cwd is the run's work directory)::

    python3 grid_worker.py WORKLOAD TRACE_SEED OUT.json [--probe] [--trace]

Builds the workload's ``SweepEngine`` exactly as the workload defines
it, records the monotonic time at which the first timed call is ready
(the parent subtracts its spawn time to get ``setup_s``), runs
``SweepEngine.run`` over the whole grid and writes rows, stats, timing
and peak RSS to ``OUT.json``.  Untraced, ``grid_s`` is in seconds at
reference host speed (``speed.py``) and ``wall_s`` is the raw wall
time; traced, both are raw.  ``--probe`` stops after set-up;
``--trace`` installs the per-layer spans first.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from grids import (  # noqa: E402
    DES_SCHEMES,
    GRID_REQUESTS_PER_CORE,
    WORKLOADS,
    ZOO_SCHEMES,
)


def build_engine(workload: str, trace_seed: int, work: Path):
    from repro.parallel import ResultCache, SweepEngine

    if workload == "des_grid":
        return DES_SCHEMES, SweepEngine(
            requests_per_core=GRID_REQUESTS_PER_CORE, root_seed=trace_seed,
            workers=1, cache=False, fastpath="off",
        )
    if workload == "zoo_auto":
        store = work / f"cache-{time.monotonic_ns()}"
        return ZOO_SCHEMES, SweepEngine(
            requests_per_core=GRID_REQUESTS_PER_CORE, root_seed=trace_seed,
            workers=1, cache=ResultCache(store), fastpath="auto",
        )
    raise SystemExit(f"unknown grid workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, trace_seed, out = argv[0], int(argv[1]), Path(argv[2])
    traced = "--trace" in argv
    lt = None
    if traced:
        from layers import LayerTracer, install

        lt = LayerTracer("grid")
        install(lt)
    schemes, engine = build_engine(workload, trace_seed, out.parent)
    ready = time.monotonic()
    doc: dict = {"ready": ready}
    if "--probe" not in argv:
        meter = None
        if not traced:
            import repro.parallel.engine as engine_module
            from speed import GRID_PROBE_ITERS, SpeedMeter

            meter = SpeedMeter(GRID_PROBE_ITERS)
            engine_module._run_cell = meter.around_cells(engine_module._run_cell)
        try:
            t0 = time.perf_counter()
            result = engine.run(schemes, WORKLOADS)
            doc["wall_s"] = doc["grid_s"] = time.perf_counter() - t0
            if meter is not None:
                doc["wall_s"] -= meter.wait_s
                meter.sample()
                doc["grid_s"] = meter.normalize(doc["wall_s"])
                doc["speed"] = meter.speed_factor()
        finally:
            if meter is not None:
                meter.close()
        doc["rows"] = [dataclasses.asdict(r) for r in result.rows]
        doc["errors"] = [e.format() for e in result.errors]
        doc["stats"] = result.stats.to_dict()
        doc["end"] = time.monotonic()
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if lt is not None:
        lt.dump(out.with_suffix(".spans.json"), ready=ready)
    out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
