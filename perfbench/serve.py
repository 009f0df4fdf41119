"""Benchmark-owned launcher for the sweep service.

Usage (spawned by ``run.py``)::

    python3 serve.py OUT.json [--trace] -- serve --socket s.sock ...

Runs the program's own ``serve`` CLI verb in this process, with either
the per-layer spans of ``layers.py`` (``--trace``) or a host-speed
probe (``speed.py``) before every executed cell installed first, and
when the server has stopped writes its peak RSS, end time, probe
samples and (traced) spans to ``OUT.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1:]
    out = Path(own[0])
    lt = meter = None
    if "--trace" in own:
        from layers import LayerTracer, install

        lt = LayerTracer("server")
        install(lt)
    else:
        import repro.service.scheduler as scheduler
        from speed import SERVICE_PROBE_ITERS, SpeedMeter

        meter = SpeedMeter(SERVICE_PROBE_ITERS)
        scheduler.execute_cell_payload = meter.around_cells(scheduler.execute_cell_payload)
    from repro.cli import main as cli_main

    try:
        rc = cli_main(cli_args)
    finally:
        if meter is not None:
            meter.close()
    doc = {
        "rc": rc,
        "end": time.monotonic(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if meter is not None:
        doc["probes"] = {
            "starts": meter.starts, "waits": meter.waits,
            "durations": meter.durations, "iterations": meter.iterations,
        }
    if lt is not None:
        lt.dump(out.with_suffix(".spans.json"))
    out.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
