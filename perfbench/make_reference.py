"""Regenerate the committed reference rows (DES lane, no cache).

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py [trace_seed ...]

Writes ``perfbench/reference/seed_<trace_seed>.json`` for every pooled
trace seed (or the ones named): all 11 zoo schemes x 8 workloads on
the DES lane at the grid trace length and at the service trace length,
and on the ``auto`` lane at the service trace length (the rows the
service must hand back unchanged).  Sets already in a file are kept.
Only rerun this when a change is meant to alter simulation results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from grids import (  # noqa: E402
    GRID_REQUESTS_PER_CORE,
    SERVICE_REQUESTS_PER_CORE,
    TRACE_SEEDS,
    WORKLOADS,
    ZOO_SCHEMES,
)
from reference import FIELDS, reference_path  # noqa: E402


#: ``"<fastpath mode>/<requests per core>"`` row sets in each file.
SETS = (
    f"off/{GRID_REQUESTS_PER_CORE}",
    f"off/{SERVICE_REQUESTS_PER_CORE}",
    f"auto/{SERVICE_REQUESTS_PER_CORE}",
)


def grid_rows(name: str, seed: int) -> dict[str, list]:
    import dataclasses

    from repro.parallel import SweepEngine

    mode, rpc = name.split("/")
    result = SweepEngine(
        requests_per_core=int(rpc), root_seed=seed, workers=1,
        cache=False, fastpath=mode, recheck_fraction=0.0,
    ).run(ZOO_SCHEMES, WORKLOADS)
    result.raise_errors()
    out = {}
    for row in result.rows:
        d = dataclasses.asdict(row)
        out[f"{row.workload}/{row.scheme}"] = [d[f] for f in FIELDS]
    return out


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(TRACE_SEEDS)
    for seed in seeds:
        path = reference_path(seed)
        doc = {"trace_seed": seed, "fields": list(FIELDS), "rows": {}}
        if path.exists():
            doc = json.loads(path.read_text())
        for name in SETS:
            if name not in doc["rows"]:
                doc["rows"][name] = grid_rows(name, seed)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
