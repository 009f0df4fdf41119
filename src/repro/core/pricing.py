"""The per-write pricer both sweep lanes share: count tables -> prices.

:func:`price_writes` prices every write of a trace — read stage, plus
analysis stage, plus the packed write stage of Eq. 5 — in one vectorized
pass, dispatching once on the scheme's :class:`PricingRule`.  The DES
lane calls it through ``precompute_write_service`` (adding process
variation), the analytic lane as ``fastpath.pricer.price_write_service``,
and the scheme classes read ``requires_read`` and ``worst_case_units()``
from the same rules.  Count tables suffice because a trace's per-write
(SET, RESET) counts are post-inversion by construction (see
:mod:`repro.trace.content`).  ``repro.oracle.analytic`` re-derives every
rule independently (``tests/test_pricing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import SystemConfig
from repro.core.batch import pack_batch
from repro.core.energy import EnergyModel
from repro.core.generalized import BurstClass, GeneralizedScheduler
from repro.trace.record import Trace

__all__ = ["PALP_PARTITIONS", "PRICING", "PricingRule", "WriteServiceTable", "price_writes"]

#: PreSET demand depends on the absolute zero count of the new data,
#: which count tables do not carry; random line content has ~half zeros
#: per 64-bit unit, so every write is charged the expectation.
_PRESET_ZEROS_PER_UNIT = 32

#: Partitions of PALP's partitioned plan (``PALPWrite``'s default).
PALP_PARTITIONS = 2


@dataclass(frozen=True)
class WriteServiceTable:
    """Per-write pricing for one (trace, scheme) pair."""

    scheme: str
    service_ns: np.ndarray   # (n_writes,)
    units: np.ndarray        # (n_writes,) write-stage length in t_set units
    energy: np.ndarray       # (n_writes,) normalized energy

    def mean_units(self) -> float:
        return float(self.units.mean()) if self.units.size else 0.0


@dataclass(frozen=True)
class PricingRule:
    """How one scheme prices a write from its (SET, RESET) counts.

    ``units`` is the write-stage rule: ``"fixed"`` (the worst case on
    every write), ``"tetris"`` (Algorithm 2), ``"relaxed"`` (unaligned
    Algorithm 2), ``"dirty"`` (a per-data-unit share per dirty unit),
    ``"preset"`` (RESET-only Algorithm 2 at the expected zero count) or
    ``"palp"`` (the cheaper of serial and partitioned Algorithm 2).
    ``worst_case`` maps a config to the closed-form worst-case write
    stage in ``t_set`` units; ``programs_every_cell`` charges energy for
    every cell at random data's half/half split, not the changed cells.
    """

    requires_read: bool
    units: str
    worst_case: Callable[[SystemConfig], float]
    programs_every_cell: bool = False

    @property
    def analyzes(self) -> bool:
        """Pays the analysis stage (the packing rules do)."""
        return self.units in ("tetris", "relaxed", "palp")


def _line_units(cfg: SystemConfig) -> float:
    """Eq. 1: one ``t_set`` per write unit, ``N/M``."""
    return float(cfg.units_per_line)


def _half_line_units(cfg: SystemConfig) -> float:
    """Eq. 2: at most ``N/2`` programs per unit doubles the write unit."""
    return cfg.units_per_line / 2.0


def _two_stage_units(cfg: SystemConfig) -> float:
    """Eq. 3: ``(1/K + 1/2L) * N/M``."""
    nm = cfg.units_per_line
    return nm / cfg.K + nm / (2.0 * cfg.L)


def _three_stage_units(cfg: SystemConfig) -> float:
    """Eq. 4: ``(1/2K + 1/2L) * N/M``."""
    nm = cfg.units_per_line
    return nm / (2.0 * cfg.K) + nm / (2.0 * cfg.L)


def _packing_bound(cfg: SystemConfig) -> float:
    """Queue-admission bound of the packing schemes: every unit in its
    own write unit plus a full set of overflow sub-slots."""
    return float(cfg.units_per_line) + cfg.data_units_per_line / cfg.K


def _preset_bound(cfg: SystemConfig) -> float:
    """All cells zero: ``N * L`` current per unit, each unit's burst
    split into ``ceil(N*L / budget)`` sub-slots."""
    per_unit = int(np.ceil(cfg.data_unit_bits * cfg.L / cfg.bank_power_budget))
    return cfg.data_units_per_line * per_unit / cfg.K


#: One rule per registered scheme (``tests/test_pricing.py`` pins the
#: coverage against ``SCHEME_REGISTRY``).
PRICING: dict[str, PricingRule] = {
    "conventional": PricingRule(
        False, "fixed", _line_units, programs_every_cell=True
    ),
    "dcw": PricingRule(True, "fixed", _line_units),
    "flip_n_write": PricingRule(True, "fixed", _half_line_units),
    "two_stage": PricingRule(
        False, "fixed", _two_stage_units, programs_every_cell=True
    ),
    "three_stage": PricingRule(True, "fixed", _three_stage_units),
    "tetris": PricingRule(True, "tetris", _packing_bound),
    "tetris_relaxed": PricingRule(True, "relaxed", _packing_bound),
    "preset": PricingRule(False, "preset", _preset_bound),
    "wire": PricingRule(True, "fixed", _half_line_units),
    "datacon": PricingRule(True, "dirty", _line_units),
    "palp": PricingRule(True, "palp", _packing_bound),
}


def _pack(n_set, n_reset, cfg: SystemConfig, budget: float) -> np.ndarray:
    """Algorithm 2 over every write: Eq. 5 units."""
    return pack_batch(
        n_set, n_reset, K=cfg.K, L=cfg.L, power_budget=budget, allow_split=True
    ).service_units()


def _relaxed_units(n_set, n_reset, cfg: SystemConfig) -> np.ndarray:
    """The unaligned packer, one write at a time (count-only entry)."""
    scheduler = GeneralizedScheduler(
        cfg.bank_power_budget, cfg.timings.t_set_ns / cfg.K
    )
    write1 = BurstClass("write1", cfg.K, 1.0)
    write0 = BurstClass("write0", 1, cfg.L)
    return np.array(
        [
            scheduler.total_subslots({write1: s, write0: r}) / cfg.K
            for s, r in zip(n_set.tolist(), n_reset.tolist())
        ]
    )


def _palp_units(n_set, n_reset, cfg: SystemConfig) -> np.ndarray:
    """The cheaper of PALP's two plans, per write."""
    budget = cfg.bank_power_budget
    serial = _pack(n_set, n_reset, cfg, budget)
    sub_budget = budget / PALP_PARTITIONS
    # A partition must cover one cell's program current (SET = 1,
    # RESET = L); below that only the serial plan exists.
    if sub_budget < max(1.0, cfg.L):
        return serial
    n_units = n_set.shape[1]
    chunk = -(-n_units // PALP_PARTITIONS)  # ceil division
    worst = np.zeros(n_set.shape[0], dtype=np.float64)
    for lo in range(0, n_units, chunk):
        hi = min(lo + chunk, n_units)
        worst = np.maximum(
            worst, _pack(n_set[:, lo:hi], n_reset[:, lo:hi], cfg, sub_budget)
        )
    return np.minimum(serial, worst)


def price_writes(
    trace: Trace,
    scheme: str,
    config: SystemConfig,
    *,
    adaptive_analysis: bool = False,
) -> WriteServiceTable:
    """Price every write of ``trace`` under ``scheme``, vectorized.

    ``adaptive_analysis`` applies Tetris's hardware fast path (see
    ``TetrisWrite.adaptive_analysis``).  A scheme without a
    :data:`PRICING` rule raises ``KeyError``: only running its writes
    (``run_fullsystem(..., functional=True)``) can price them.
    """
    try:
        rule = PRICING[scheme]
    except KeyError:
        raise KeyError(
            f"scheme {scheme!r} has no vectorized pricing rule "
            f"(priced: {sorted(PRICING)}); simulate its writes with "
            f"run_fullsystem(..., functional=True)"
        ) from None
    n_set = trace.write_counts[..., 0].astype(np.int64)
    n_reset = trace.write_counts[..., 1].astype(np.int64)
    n_writes = trace.n_writes
    em = EnergyModel.for_config(config)

    if rule.units == "fixed":
        units = np.full(n_writes, rule.worst_case(config))
    elif rule.units == "tetris":
        units = _pack(n_set, n_reset, config, config.bank_power_budget)
    elif rule.units == "relaxed":
        units = _relaxed_units(n_set, n_reset, config)
    elif rule.units == "dirty":
        dirty = np.count_nonzero(n_set + n_reset, axis=1)
        per_dirty = config.units_per_line / config.data_units_per_line
        units = dirty.astype(np.float64) * per_dirty
    elif rule.units == "preset":
        n_zero = np.full(
            (n_writes, trace.units_per_line), _PRESET_ZEROS_PER_UNIT, dtype=np.int64
        )
        units = _pack(np.zeros_like(n_zero), n_zero, config, config.bank_power_budget)
    else:  # "palp"
        units = _palp_units(n_set, n_reset, config)

    read_ns = config.timings.t_read_ns if rule.requires_read else 0.0
    analysis_ns = config.analysis_overhead_ns if rule.analyzes else 0.0
    changed_set = n_set.sum(axis=1)
    changed_reset = n_reset.sum(axis=1)
    if adaptive_analysis and rule.units == "tetris":
        # Trivial schedules (all write-1s in one write unit, all
        # write-0s in its interspace) answer in 4 cycles instead of 41.
        in1 = changed_set.astype(np.float64)
        in0 = changed_reset.astype(np.float64) * config.L
        budget = config.bank_power_budget
        trivial = (in1 <= budget) & (in1 + in0 <= budget)
        analysis_ns = np.where(trivial, 10.0, analysis_ns)
    service = read_ns + analysis_ns + units * config.timings.t_set_ns

    if rule.units == "preset":
        # Demand RESETs plus the deferred background SET of each.
        cells = np.full(n_writes, _PRESET_ZEROS_PER_UNIT * trace.units_per_line)
        energy = cells.astype(np.float64) * (em.e_reset + em.e_set)
    elif rule.programs_every_cell:
        half = trace.units_per_line * config.data_unit_bits / 2.0
        energy = np.full(n_writes, float(em.write_energy(half, half)))
    else:
        energy = em.write_energy(changed_set, changed_reset)
    energy = energy + (em.read_energy_per_line if rule.requires_read else 0.0)
    return WriteServiceTable(scheme, service, units, energy)
