"""Fixed grid definitions and seed mapping shared by every workload.

The benchmark's inputs are pinned here instead of being read from the
program's registries, so a scheme or workload added to ``src/`` later
does not silently change what a workload measures.
"""

from __future__ import annotations

WORKLOADS = (
    "blackscholes", "bodytrack", "canneal", "dedup",
    "ferret", "freqmine", "swaptions", "vips",
)
#: The Fig 11-14 grid: the DCW baseline plus the paper's compared schemes.
DES_SCHEMES = ("dcw", "flip_n_write", "two_stage", "three_stage", "tetris")
#: The 11-scheme zoo (paper schemes, extensions, WIRE / DATACON / PALP).
ZOO_SCHEMES = (
    "conventional", "datacon", "dcw", "flip_n_write", "palp", "preset",
    "tetris", "tetris_relaxed", "three_stage", "two_stage", "wire",
)
#: Trace length of the grid workloads (the SweepEngine default).
GRID_REQUESTS_PER_CORE = 4000
#: Trace length of service jobs (the GridSpec default).
SERVICE_REQUESTS_PER_CORE = 400

#: Trace seeds with committed reference rows.  ``--seed n`` selects
#: ``TRACE_SEEDS[n % len(TRACE_SEEDS)]``; the service workload also uses
#: the next entry, so its jobs span two traces.
TRACE_SEEDS = tuple(20160816 + 7919 * i for i in range(8))


#: ``zoo_auto`` always runs the paper's default trace seed.  Its recheck
#: re-runs 2 of the 80 fastpath cells on the DES, picked by trace seed,
#: and which 2 changes the grid's work by up to 20% (a ``tetris_relaxed``
#: cell re-prices every write); a seed-dependent trace would turn that
#: into run-to-run spread that no repetition can average out.
ZOO_TRACE_SEED = TRACE_SEEDS[0]


def trace_seed(seed: int, offset: int = 0) -> int:
    """The pooled trace seed a benchmark ``--seed`` maps to."""
    return TRACE_SEEDS[(seed + offset) % len(TRACE_SEEDS)]
