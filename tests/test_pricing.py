"""The shared write pricer against the oracle's independent closed forms.

Both sweep lanes price writes with ``repro.core.pricing.price_writes``
(the DES lane through ``precompute_write_service``, the analytic lane
as ``repro.fastpath.pricer.price_write_service``), so the recheck's
exact pricing bands no longer compare two implementations.  This
differential keeps the cross-check: every scheme's per-write service
time, write-stage units and energy against ``repro.oracle.analytic``
(and first-principles energy), at the paper point and at a mobile point
where write units and data units diverge, within the recheck's pricing
bands.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.schemes.base as scheme_base
from repro.config import default_config, mobile_config
from repro.core.pricing import PRICING, price_writes
from repro.experiments.fullsystem import precompute_write_service, run_fullsystem
from repro.fastpath.agreement import FIELD_TOLERANCES
from repro.fastpath.pricer import price_write_service
from repro.oracle import analytic
from repro.pcm.state import LineState
from repro.schemes import SCHEME_REGISTRY, get_scheme
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.trace.synthetic import generate_trace

POINTS = {"paper": default_config(), "mobile": mobile_config(4)}
TRACES = (("dedup", 11), ("canneal", 12))
BANDS = {t.field: t for t in FIELD_TOLERANCES}
#: The oracle's PreSET input: random line content has ~half zeros per
#: 64-bit unit.
PRESET_ZEROS = 32
#: ``EnergyModel``'s default read energy per line (normalized units).
READ_ENERGY = 10.0


def test_mobile_point_separates_write_and_data_units():
    cfg = POINTS["mobile"]
    assert cfg.units_per_line != cfg.data_units_per_line


def test_every_registered_scheme_has_a_pricing_rule():
    assert set(SCHEME_REGISTRY) <= set(PRICING)
    assert set(PRICING) <= set(SCHEME_REGISTRY)


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("scheme", sorted(PRICING))
def test_scheme_class_reads_its_rule(scheme, point):
    cfg = POINTS[point]
    op = analytic.OperatingPoint.from_config(cfg)
    instance = get_scheme(scheme, cfg)
    assert instance.requires_read == PRICING[scheme].requires_read
    assert instance.worst_case_units() == pytest.approx(
        analytic.worst_case_units(scheme, op), rel=1e-12
    )


def _oracle_units(scheme: str, n_set, n_reset, op) -> float:
    """Per-write write-stage length from the oracle's closed forms."""
    if scheme == "tetris":
        return analytic.tetris_units(n_set, n_reset, op)
    if scheme == "tetris_relaxed":
        return analytic.tetris_relaxed_units(n_set, n_reset, op)
    if scheme == "datacon":
        return analytic.datacon_units(n_set, n_reset, op)
    if scheme == "palp":
        return analytic.palp_units(n_set, n_reset, op)
    if scheme == "preset":
        return analytic.preset_units([PRESET_ZEROS] * len(n_set), op)
    return analytic.worst_case_units(scheme, op)


def _oracle_energy(scheme: str, n_set, n_reset, cfg) -> float:
    """Per-write energy from first principles (current x time per cell)."""
    e_set = cfg.timings.t_set_ns
    e_reset = cfg.L * cfg.timings.t_reset_ns
    if scheme == "preset":
        cells = PRESET_ZEROS * len(n_set)
        return cells * (e_set + e_reset)
    if scheme in ("conventional", "two_stage"):
        half = len(n_set) * cfg.data_unit_bits / 2.0
        return half * (e_set + e_reset)
    read = READ_ENERGY if PRICING[scheme].requires_read else 0.0
    return sum(n_set) * e_set + sum(n_reset) * e_reset + read


@pytest.mark.parametrize("workload, seed", TRACES)
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("scheme", sorted(PRICING))
def test_price_writes_matches_the_oracle(scheme, point, workload, seed):
    cfg = POINTS[point]
    op = analytic.OperatingPoint.from_config(cfg)
    trace = generate_trace(
        workload, 60, seed=seed, units_per_line=cfg.data_units_per_line
    )
    table = price_writes(trace, scheme, cfg)
    assert table.service_ns.shape == (trace.n_writes,)
    units_band = BANDS["mean_write_units"]
    energy_band = BANDS["mean_write_energy"]
    for w in range(trace.n_writes):
        n_set = trace.write_counts[w, :, 0].tolist()
        n_reset = trace.write_counts[w, :, 1].tolist()
        units = _oracle_units(scheme, n_set, n_reset, op)
        assert units_band.accepts(table.units[w], units), (w, n_set, n_reset)
        assert units_band.accepts(
            table.service_ns[w], analytic.service_ns(scheme, units, op)
        ), w
        assert energy_band.accepts(
            table.energy[w], _oracle_energy(scheme, n_set, n_reset, cfg)
        ), w


def test_unpriced_scheme_fails_loudly(monkeypatch):
    # A private registry copy keeps the custom scheme out of every other
    # test's view of SCHEME_REGISTRY.
    monkeypatch.setattr(scheme_base, "SCHEME_REGISTRY", dict(SCHEME_REGISTRY))

    class EagerHalfWrite(WriteScheme):
        """Content-dependent timing with no vectorized pricing rule."""

        name = "eager_half_test"
        requires_read = False

        def worst_case_units(self) -> float:
            return self.config.units_per_line / 2.0

        def _write_once(self, state: LineState, new_logical) -> WriteOutcome:
            changed = int(np.count_nonzero(state.logical != new_logical))
            state.store(
                np.asarray(new_logical, dtype=np.uint64),
                np.zeros(len(new_logical), dtype=bool),
            )
            return self._outcome(
                units=changed / 2.0, read_ns=0.0, analysis_ns=0.0,
                n_set=changed, n_reset=0,
            )

    assert scheme_base.SCHEME_REGISTRY["eager_half_test"] is EagerHalfWrite
    trace = generate_trace("dedup", 30, seed=3)
    with pytest.raises(KeyError, match="eager_half_test.*functional=True"):
        precompute_write_service(trace, "eager_half_test")
    with pytest.raises(KeyError, match="eager_half_test"):
        price_write_service(trace, "eager_half_test", default_config())
    with pytest.raises(KeyError, match="eager_half_test"):
        run_fullsystem(trace, "eager_half_test")
    # The functional path still runs any registered scheme.
    res = run_fullsystem(trace, "eager_half_test", functional=True)
    assert res.runtime_ns > 0
