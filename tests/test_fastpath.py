"""Fastpath lane: envelope boundaries, agreement, certificates, kernels.

The load-bearing guarantees (ISSUE 9):

* the envelope routes every unverified regime (faults, ablation knobs,
  supplied traces, unpriced schemes) to the DES, and ``force`` raises a
  structured error instead of silently pricing outside it;
* ``REPRO_NO_FASTPATH=1`` / ``fastpath="off"`` keep rows byte-identical
  to the pre-fastpath engine, and ``REPRO_NO_VECTOR=1`` selects scalar
  kernels that are bit-identical to the vectorized ones;
* every run emits a lane certificate, and a full differential recheck
  of a small grid shows zero divergences under the agreement bands.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.config import default_config
from repro.core.read_stage import popcount_line, read_stage, read_stage_batch
from repro.fastpath import (
    CERTIFICATE_VERSION,
    FIELD_TOLERANCES,
    FastpathEnvelopeError,
    PRICED_SCHEMES,
    classify,
    select_recheck_indices,
)
from repro.parallel import ResultCache, SweepEngine
from repro.pcm.state import cell_diff, cell_diff_batch
from repro.schemes import SCHEME_REGISTRY
from repro.util import kernelstats

SCHEMES = ("dcw", "tetris", "flip_n_write")
WORKLOADS = ("dedup", "vips")
REQUESTS = 250


def row_bytes(rows) -> list[str]:
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in rows]


def _cfg(**nested):
    """Default config with nested sub-config fields replaced.

    ``_cfg(memctrl={"write_pausing": True})`` replaces fields inside
    ``config.memctrl``; scalar kwargs replace top-level fields.
    """
    cfg = default_config()
    top = {}
    for name, value in nested.items():
        if isinstance(value, dict):
            top[name] = dataclasses.replace(getattr(cfg, name), **value)
        else:
            top[name] = value
    return cfg.replace(**top)


# ----------------------------------------------------------------------
# Envelope boundaries.
# ----------------------------------------------------------------------
def test_default_config_is_inside_for_every_priced_scheme():
    cfg = default_config()
    for scheme in sorted(PRICED_SCHEMES):
        decision = classify(cfg, scheme)
        assert decision.inside and decision.reasons == ()


def test_priced_schemes_cover_the_registry_exactly():
    # Every priced scheme must be registered (one priced but
    # unregistered could never be validated), and the deliberately
    # DES-only remainder is pinned so a new scheme registered without a
    # pricer can't silently fall back to DES forever unnoticed.
    assert PRICED_SCHEMES <= set(SCHEME_REGISTRY)
    assert set(SCHEME_REGISTRY) - PRICED_SCHEMES == {"palp"}


def test_unpriced_scheme_routes_to_des():
    decision = classify(default_config(), "mlc_tetris")
    assert not decision.inside
    assert "unpriced-scheme" in decision.reasons


@pytest.mark.parametrize(
    "nested, reason",
    [
        ({"faults": {"enabled": True}}, "faults-enabled"),
        ({"trace": {"enabled": True}}, "obs-tracing-enabled"),
        ({"memctrl": {"write_pausing": True}}, "write-pausing"),
        ({"memctrl": {"write_coalescing": True}}, "write-coalescing"),
        ({"memctrl": {"opportunistic_drain": True}}, "opportunistic-drain"),
        ({"memctrl": {"drain_order": "sjf"}}, "drain-order-not-fifo"),
        ({"organization": {"subarrays_per_bank": 2}}, "subarray-parallelism"),
        ({"cpu": {"max_outstanding_reads": 2}}, "memory-level-parallelism"),
        ({"cpu": {"num_cores": 64}}, "read-queue-pressure"),
        ({"power": {"power_budget_per_chip": 0.4}}, "budget-below-cell-cost"),
    ],
)
def test_each_unverified_regime_routes_to_des(nested, reason):
    decision = classify(_cfg(**nested), "tetris")
    assert not decision.inside
    assert reason in decision.reasons


def test_supplied_trace_routes_to_des():
    decision = classify(default_config(), "tetris", supplied_trace=True)
    assert decision.reasons == ("supplied-trace",)


def test_reasons_accumulate():
    cfg = _cfg(
        faults={"enabled": True},
        memctrl={"write_pausing": True, "drain_order": "sjf"},
    )
    decision = classify(cfg, "mlc_tetris")
    assert set(decision.reasons) >= {
        "unpriced-scheme", "faults-enabled", "write-pausing",
        "drain-order-not-fifo",
    }


def test_forced_fastpath_outside_envelope_is_a_structured_error():
    eng = SweepEngine(
        config=_cfg(faults={"enabled": True}),
        requests_per_core=REQUESTS,
        cache=False,
        fastpath="force",
    )
    with pytest.raises(FastpathEnvelopeError) as exc:
        eng.plan(("tetris",), ("dedup",))
    assert exc.value.scheme == "tetris"
    assert exc.value.workload == "dedup"
    assert "faults-enabled" in exc.value.reasons
    assert "--fastpath auto" in str(exc.value)


def test_engine_rejects_unknown_lane_policy():
    with pytest.raises(ValueError):
        SweepEngine(fastpath="sometimes")
    with pytest.raises(ValueError):
        SweepEngine(recheck_fraction=1.5)


# ----------------------------------------------------------------------
# Kill switches and byte-compatibility.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def legacy_rows():
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="off"
    )
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    return res


def test_fastpath_off_marks_every_cell_des(legacy_rows):
    assert legacy_rows.stats.fastpath_cells == 0
    assert legacy_rows.stats.des_cells == legacy_rows.stats.cells
    assert legacy_rows.certificate["mode"] == "off"
    assert all(
        c["lane"] == "des" and c["reasons"] == ["fastpath-off"]
        for c in legacy_rows.certificate["cells"]
    )


def test_no_fastpath_env_overrides_auto_byte_identically(
    legacy_rows, monkeypatch
):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="auto"
    )
    assert eng.fastpath_mode() == "off"
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    assert res.stats.fastpath_cells == 0
    assert row_bytes(res.rows) == row_bytes(legacy_rows.rows)


def test_fastpath_rows_match_des_within_bands(legacy_rows):
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="force",
        recheck_fraction=1.0,
    )
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    s = res.stats
    assert s.fastpath_cells == s.cells == len(SCHEMES) * len(WORKLOADS)
    assert s.des_cells == 0
    # The analytic lane marks its rows: no DES events were simulated.
    assert all(r.events == 0 for r in res.rows)
    # Full differential recheck: every cell re-ran on the DES and agreed
    # within the field tolerance bands.
    assert s.recheck_samples == s.cells
    assert s.recheck_divergences == 0
    # And the same bands hold against an independently computed DES run.
    fields = [t.field for t in FIELD_TOLERANCES]
    for fast, des in zip(res.rows, legacy_rows.rows):
        fast_d, des_d = dataclasses.asdict(fast), dataclasses.asdict(des)
        for tol in FIELD_TOLERANCES:
            assert tol.accepts(fast_d[tol.field], des_d[tol.field]), (
                f"{fast.workload}/{fast.scheme}: {tol.field} "
                f"fast={fast_d[tol.field]} des={des_d[tol.field]}"
            )
    assert "read_latency_ns" in fields and "ipc" in fields


# ----------------------------------------------------------------------
# Certificate.
# ----------------------------------------------------------------------
def test_certificate_schema_and_file(tmp_path):
    cert_path = tmp_path / "cert.json"
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="auto",
        recheck_fraction=1.0, certificate_path=cert_path,
    )
    res = eng.run(("tetris", "dcw"), ("dedup",))
    res.raise_errors()
    cert = json.loads(cert_path.read_text())
    assert cert == res.certificate
    assert cert["version"] == CERTIFICATE_VERSION
    assert cert["mode"] == "auto"
    assert cert["recheck_fraction"] == 1.0
    assert cert["summary"] == {
        "cells": 2,
        "fastpath": 2,
        "des": 0,
        "recheck_samples": 2,
        "recheck_divergences": 0,
    }
    for cell in cert["cells"]:
        assert set(cell) == {
            "index", "workload", "scheme", "seed", "variant", "lane",
            "source", "reasons",
        }
        assert cell["lane"] in ("fastpath", "des")
        assert cell["source"] == "executed"
    for rec in cert["rechecks"]:
        assert rec["divergences"] == []
        assert {"index", "workload", "scheme", "seed", "variant"} <= set(rec)


def test_recheck_sampling_is_seeded_and_bounded():
    cells = list(range(100))
    a = select_recheck_indices(cells, 0.05, 7)
    b = select_recheck_indices(cells, 0.05, 7)
    assert a == b and len(a) == 5
    assert select_recheck_indices(cells, 0.05, 8) != a  # seed moves sample
    assert select_recheck_indices(cells, 0.0, 7) == []  # 0 disables
    assert len(select_recheck_indices([3], 0.001, 7)) == 1  # min 1 sample
    assert select_recheck_indices([], 1.0, 7) == []


# ----------------------------------------------------------------------
# Cache lane separation.
# ----------------------------------------------------------------------
def test_cache_keys_and_rows_are_lane_separated(tmp_path):
    cache = ResultCache(tmp_path / "store")
    assert cache.cell_key(
        config_json="{}", trace_key="t", scheme="tetris", lane="fastpath"
    ) != cache.cell_key(
        config_json="{}", trace_key="t", scheme="tetris", lane="des"
    )

    kwargs = dict(requests_per_core=REQUESTS, cache=cache)
    fast = SweepEngine(fastpath="force", recheck_fraction=0.0, **kwargs)
    fast.run(("tetris",), ("dedup",)).raise_errors()
    # A DES-lane run over the same grid must not be served analytic rows.
    des = SweepEngine(fastpath="off", **kwargs)
    res = des.run(("tetris",), ("dedup",))
    res.raise_errors()
    assert res.stats.cache_hits == 0
    assert res.stats.executed == 1
    assert res.rows[0].events > 0
    report = cache.report()
    assert report["by_lane"] == {"des": 1, "fastpath": 1}


# ----------------------------------------------------------------------
# Vectorized kernels vs scalar reference.
# ----------------------------------------------------------------------
def _kernel_cases():
    rng = np.random.default_rng(20160816)
    rand = rng.integers(0, 1 << 64, size=(6, 8), dtype=np.uint64)
    adversarial = np.array(
        [
            [0] * 8,                                  # all zeros
            [0xFFFF_FFFF_FFFF_FFFF] * 8,              # all ones
            [0xAAAA_AAAA_AAAA_AAAA] * 8,              # alternating
            [1, 0, 0, 0, 0, 0, 0, 1 << 63],           # single bits
        ],
        dtype=np.uint64,
    )
    return np.concatenate([rand, adversarial])


@pytest.mark.parametrize("unit_bits", [64, 32])
@pytest.mark.parametrize("count_flip_bit", [False, True])
def test_scalar_read_stage_is_bit_identical(
    monkeypatch, unit_bits, count_flip_bit
):
    cases = _kernel_cases()
    flips = np.tile([False, True], cases.shape[1] // 2)
    for old in cases:
        for new in cases:
            monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
            vec = read_stage(
                old, flips, new,
                unit_bits=unit_bits, count_flip_bit=count_flip_bit,
            )
            monkeypatch.setenv("REPRO_NO_VECTOR", "1")
            ref = read_stage(
                old, flips, new,
                unit_bits=unit_bits, count_flip_bit=count_flip_bit,
            )
            for name in ("flip", "physical", "n_set", "n_reset"):
                assert np.array_equal(
                    getattr(vec, name), getattr(ref, name)
                ), f"{name} diverged (unit_bits={unit_bits})"


def test_scalar_batch_and_diff_kernels_are_bit_identical(monkeypatch):
    cases = _kernel_cases()
    flips = np.zeros(cases.shape, dtype=bool)
    flips[:, ::2] = True
    old, new = cases, cases[::-1].copy()

    monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
    vec_rs = read_stage_batch(old, flips, new)
    vec_diff = cell_diff_batch(old, new)
    vec_cd = [cell_diff(o, n) for o, n in zip(old, new)]
    vec_pop = [popcount_line(row) for row in cases]

    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    ref_rs = read_stage_batch(old, flips, new)
    ref_diff = cell_diff_batch(old, new)
    ref_cd = [cell_diff(o, n) for o, n in zip(old, new)]
    ref_pop = [popcount_line(row) for row in cases]

    for name in ("flip", "physical", "n_set", "n_reset"):
        assert np.array_equal(getattr(vec_rs, name), getattr(ref_rs, name))
    assert np.array_equal(vec_diff[0], ref_diff[0])
    assert np.array_equal(vec_diff[1], ref_diff[1])
    assert vec_cd == ref_cd
    assert vec_pop == ref_pop
    # cell_diff_batch must agree with per-row cell_diff too.
    assert [tuple(map(int, t)) for t in zip(*vec_diff)] == vec_cd


def test_kernel_counters_track_dispatch(monkeypatch):
    units = np.arange(8, dtype=np.uint64)
    flips = np.zeros(8, dtype=bool)
    kernelstats.reset()
    monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
    read_stage(units, flips, units)
    popcount_line(units)
    assert kernelstats.snapshot() == {"vectorized": 2, "scalar": 0}
    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    read_stage(units, flips, units)
    assert kernelstats.snapshot() == {"vectorized": 2, "scalar": 1}
    kernelstats.reset()
    assert kernelstats.snapshot() == {"vectorized": 0, "scalar": 0}


def test_scalar_kernels_reproduce_a_functional_run(monkeypatch):
    # One end-to-end run under REPRO_NO_VECTOR: the functional service
    # model drives every write through the scheme pipeline (and thus the
    # scalar kernels); its outcomes must match the vectorized run.
    from repro.experiments.fullsystem import run_fullsystem
    from repro.trace.synthetic import generate_trace

    trace = generate_trace("dedup", 120, num_cores=4, seed=7)

    monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
    vec = run_fullsystem(trace, "tetris", functional=True)
    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    ref = run_fullsystem(trace, "tetris", functional=True)
    for name in ("runtime_ns", "ipc", "mean_write_latency_ns"):
        assert getattr(ref, name) == getattr(vec, name), name  # exact


# ----------------------------------------------------------------------
# Service surface.
# ----------------------------------------------------------------------
def test_grid_spec_validates_and_threads_fastpath():
    from repro.service.jobs import GridSpec
    from repro.service.protocol import ProtocolError

    spec = GridSpec.from_dict(
        {"schemes": ["tetris"], "workloads": ["dedup"], "fastpath": "auto"}
    )
    assert spec.fastpath == "auto"
    assert spec.to_dict()["fastpath"] == "auto"
    assert spec.engine(cache=False).fastpath == "auto"
    # Default stays the byte-compatible slow lane.
    default = GridSpec.from_dict(
        {"schemes": ["tetris"], "workloads": ["dedup"]}
    )
    assert default.fastpath == "off"
    assert all(pc.lane == "des" for pc in default.plan(cache=False))
    with pytest.raises(ProtocolError):
        GridSpec.from_dict(
            {"schemes": ["tetris"], "workloads": ["dedup"],
             "fastpath": "always"}
        )
