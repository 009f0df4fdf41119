"""Committed reference rows: loading and row reconstruction."""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: ``ExperimentResult`` numeric fields, in stored order.
FIELDS = (
    "read_latency_ns", "write_latency_ns", "ipc", "runtime_ns",
    "mean_write_units", "mean_write_energy", "forwarded_reads", "events",
)


def reference_path(trace_seed: int) -> Path:
    return REFERENCE_DIR / f"seed_{trace_seed}.json"


@cache
def _load(trace_seed: int) -> dict:
    return json.loads(reference_path(trace_seed).read_text())


def reference_row(trace_seed: int, row_set: str,
                  workload: str, scheme: str) -> dict:
    """One reference cell as an ``ExperimentResult`` field dict.

    ``row_set`` is ``"<fastpath mode>/<requests per core>"``: ``off/4000``
    and ``off/400`` hold DES rows, ``auto/400`` the service's rows.
    """
    values = _load(trace_seed)["rows"][row_set][f"{workload}/{scheme}"]
    return {"workload": workload, "scheme": scheme, **dict(zip(FIELDS, values))}
