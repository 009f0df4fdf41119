"""repro — reproduction of *Tetris Write: Exploring More Write Parallelism
Considering PCM Asymmetries* (Li et al., ICPP 2016).

Public API tour
---------------
* :mod:`repro.config` — Table II parameter sets (:func:`default_config`,
  :func:`mobile_config`).
* :mod:`repro.core` — the contribution: Algorithm 1 read stage,
  Algorithm 2 analysis/packing, the FSM executor, Equation 5, and the
  per-write pricer and energy model both sweep lanes share.
* :mod:`repro.schemes` — the uniform write-scheme interface: DCW,
  Conventional, Flip-N-Write, 2-Stage-Write, Three-Stage-Write, Tetris.
* :mod:`repro.pcm` — the device substrate: timing/power, chips,
  banks, device, write driver.
* :mod:`repro.memctrl` / :mod:`repro.cpu` / :mod:`repro.cache` /
  :mod:`repro.sim` — the full-system substrates (FR-FCFS controller,
  trace-driven cores, cache hierarchy, DES kernel).
* :mod:`repro.trace` — PARSEC-calibrated synthetic workloads.
* :mod:`repro.experiments` — one harness per paper figure/table.

Quick start::

    import numpy as np
    from repro import analyze, default_config, read_stage
    from repro.pcm.state import LineState

    cfg = default_config()
    old = LineState.from_logical(np.zeros(8, dtype=np.uint64))
    new = np.full(8, 0x0F0F, dtype=np.uint64)
    rs = read_stage(old.physical, old.flip, new)
    sched = analyze(rs.n_set, rs.n_reset,
                    K=cfg.K, L=cfg.L, power_budget=cfg.bank_power_budget)
    print(sched.service_time_ns(cfg.timings.t_set_ns))
"""

from repro.config import SystemConfig, default_config, mobile_config
from repro.core import analyze, execute_schedule, read_stage
from repro.core.analysis import TetrisScheduler
from repro.core.schedule import TetrisSchedule
from repro.schemes import ALL_SCHEMES, COMPARED_SCHEMES, get_scheme

__version__ = "1.0.0"

__all__ = [
    "ALL_SCHEMES",
    "COMPARED_SCHEMES",
    "SystemConfig",
    "TetrisSchedule",
    "TetrisScheduler",
    "analyze",
    "default_config",
    "execute_schedule",
    "get_scheme",
    "mobile_config",
    "read_stage",
    "__version__",
]
