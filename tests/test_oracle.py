"""The differential oracle: analytic models, harness, fixtures, ledger.

Four layers of checks:

1. the *independent* analytic models agree with the closed forms the
   config module derives (Eqs. 1-4) and with the production scheduler on
   exhaustive small grids (Eq. 5), across K in {4, 8, 16};
2. the differential and metamorphic harnesses run clean end-to-end;
3. every pinned regression fixture in ``tests/fixtures/oracle/``
   reproduces its expected schedule (these encode the chunk-split and
   zero-demand bugs this harness originally surfaced);
4. the paper-claims ledger matches the live configuration.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PCMTimings, default_config, theoretical_write_units
from repro.core.analysis import ScheduleError, TetrisScheduler
from repro.core.schedule import ScheduledOp, TetrisSchedule
from repro.oracle import analytic
from repro.oracle.differential import (
    des_execute_phases,
    des_execute_schedule,
    generate_vectors,
    run_differential,
)
from repro.oracle.metamorphic import run_metamorphic
from repro.oracle.paper_claims import CLAIMS, RANKINGS, band, check, expect
from repro.pcm.state import LineState
from repro.schemes import SCHEME_REGISTRY, get_scheme
from repro.verify.invariants import verify_schedule

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "oracle"

#: t_reset values giving K = floor(430 / t_reset) in {4, 8, 16}.
K_TIMINGS = {4: 107.5, 8: 53.75, 16: 26.875}


# ----------------------------------------------------------------------
# Layer 1: the analytic models themselves.
# ----------------------------------------------------------------------
class TestAnalyticClosedForms:
    def test_eq1_to_eq4_match_config_derivation(self):
        cfg = default_config()
        point = analytic.OperatingPoint.from_config(cfg)
        theory = theoretical_write_units(cfg)
        assert analytic.conventional_units(point) == theory["conventional"]
        assert analytic.dcw_units(point) == theory["dcw"]
        assert analytic.flip_n_write_units(point) == theory["flip_n_write"]
        assert analytic.two_stage_units(point) == pytest.approx(
            theory["two_stage"]
        )
        assert analytic.three_stage_units(point) == pytest.approx(
            theory["three_stage"]
        )

    def test_paper_point_values(self):
        point = analytic.OperatingPoint()
        assert analytic.conventional_units(point) == 8.0
        assert analytic.flip_n_write_units(point) == 4.0
        assert analytic.two_stage_units(point) == pytest.approx(3.0)
        assert analytic.three_stage_units(point) == pytest.approx(2.5)

    @pytest.mark.parametrize("k", sorted(K_TIMINGS))
    def test_worst_case_units_match_schemes(self, k):
        cfg = default_config(timings=PCMTimings(t_reset_ns=K_TIMINGS[k]))
        assert cfg.K == k
        point = analytic.OperatingPoint.from_config(cfg)
        for name in sorted(SCHEME_REGISTRY):
            scheme = get_scheme(name, cfg)
            assert analytic.worst_case_units(name, point) == pytest.approx(
                scheme.worst_case_units()
            ), name

    def test_pack_rejects_mismatched_vectors(self):
        point = analytic.OperatingPoint()
        with pytest.raises(ValueError):
            analytic.tetris_pack([1, 2], [1], point)

    def test_operating_point_validation(self):
        with pytest.raises(ValueError):
            analytic.OperatingPoint(K=0)
        with pytest.raises(ValueError):
            analytic.OperatingPoint(budget=-1.0)

    def test_scheme_units_unknown_scheme(self):
        with pytest.raises(KeyError):
            analytic.scheme_units("nope", analytic.OperatingPoint())


class TestEq5AgainstScheduler:
    """The independent Algorithm-2 packer vs the production scheduler."""

    @pytest.mark.parametrize("k", sorted(K_TIMINGS))
    def test_exhaustive_small_grid(self, k):
        point = analytic.OperatingPoint(K=k, L=2.0, budget=6.0)
        scheduler = TetrisScheduler(k, 2.0, 6.0, allow_split=True)
        for s0 in range(5):
            for s1 in range(5):
                for r0 in range(5):
                    for r1 in range(5):
                        n_set = np.array([s0, s1], dtype=np.int64)
                        n_reset = np.array([r0, r1], dtype=np.int64)
                        sched = scheduler.schedule(n_set, n_reset)
                        a = analytic.tetris_pack([s0, s1], [r0, r1], point)
                        assert (sched.result, sched.subresult) == a, (
                            n_set, n_reset,
                        )

    @pytest.mark.parametrize("k", sorted(K_TIMINGS))
    def test_fractional_subresult_boundaries(self, k):
        """Eq. 5's ``subresult / K`` term at non-integer boundaries.

        RESET-only demand forcing ``subresult % K != 0``: the write-stage
        length must be the exact fraction, not a rounded unit count.
        """
        point = analytic.OperatingPoint(K=k, L=2.0, budget=4.0)
        scheduler = TetrisScheduler(k, 2.0, 4.0, allow_split=True)
        hit_fractional = False
        for total in range(1, 3 * k + 2):
            n_set = np.zeros(4, dtype=np.int64)
            n_reset = np.zeros(4, dtype=np.int64)
            n_reset[0] = total
            sched = scheduler.schedule(n_set, n_reset)
            expected = analytic.tetris_units([0] * 4, n_reset.tolist(), point)
            assert sched.service_units() == pytest.approx(expected)
            assert sched.subresult == total // 2 + total % 2
            if sched.subresult % k != 0:
                hit_fractional = True
                frac = sched.service_units() - int(sched.service_units())
                assert frac == pytest.approx((sched.subresult % k) / k)
        assert hit_fractional

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 4, 8, 16]),
        L=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        budget=st.integers(min_value=4, max_value=64),
        data=st.data(),
    )
    def test_relaxed_packer_agrees_with_generalized(self, k, L, budget, data):
        """Both production entries — ``schedule()`` and the count-only
        ``total_subslots`` — against the oracle's unaligned packer.

        Counts reach twice the budget, so SET and RESET bursts split at
        it; half-integer ``L`` keeps every current exact in binary, so
        the residual and occupancy bookkeeping must agree exactly.
        """
        from repro.core.generalized import BurstClass, GeneralizedScheduler

        units = data.draw(st.integers(min_value=1, max_value=8))
        counts = st.lists(
            st.integers(min_value=0, max_value=2 * budget),
            min_size=units, max_size=units,
        )
        n_set, n_reset = data.draw(counts), data.draw(counts)
        point = analytic.OperatingPoint(K=k, L=L, budget=float(budget))
        gs = GeneralizedScheduler(float(budget), 430.0 / k)
        demands = {
            BurstClass("write1", k, 1.0): n_set,
            BurstClass("write0", 1, L): n_reset,
        }
        sched = gs.schedule(demands)
        sched.validate()
        want = analytic.tetris_relaxed_subslots(n_set, n_reset, point)
        assert gs.total_subslots(demands) == sched.total_subslots == want


# ----------------------------------------------------------------------
# Layer 2: the harnesses end to end.
# ----------------------------------------------------------------------
class TestDifferentialHarness:
    def test_smoke_run_zero_divergences(self):
        report = run_differential(cases=60, seed=3)
        assert report.ok, [d.to_dict() for d in report.divergences]
        assert report.cases > 0
        assert set(report.schemes) == set(SCHEME_REGISTRY)
        doc = report.to_dict()
        assert doc["ok"] is True and doc["divergences"] == []

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            run_differential(["nope"], cases=4)

    def test_metamorphic_smoke(self):
        result = run_metamorphic(trials=60, seed=4)
        assert result["ok"], result["violations"]

    def test_generated_vectors_cover_corners(self):
        rng = np.random.default_rng(0)
        vectors = generate_vectors(
            rng, units=8, max_per_unit=32, K=8, L=2.0, budget=6.0,
            n_random=5,
        )
        has_zero = any(
            not s.any() and not r.any() for s, r in vectors
        )
        has_set_only = any(s.any() and not r.any() for s, r in vectors)
        has_reset_only = any(not s.any() and r.any() for s, r in vectors)
        has_over_budget = any(
            float(max(s.max(initial=0) * 1.0, r.max(initial=0) * 2.0)) > 6.0
            for s, r in vectors
        )
        assert has_zero and has_set_only and has_reset_only and has_over_budget

    def test_des_replay_matches_eq5(self):
        scheduler = TetrisScheduler(8, 2.0, 16.0, allow_split=True)
        rng = np.random.default_rng(5)
        for _ in range(25):
            n_set = rng.integers(0, 24, size=8)
            n_reset = rng.integers(0, 24, size=8)
            sched = scheduler.schedule(n_set, n_reset)
            executed = des_execute_schedule(sched, 430.0)
            assert executed == pytest.approx(sched.service_time_ns(430.0))

    def test_des_replay_empty_schedule_is_zero(self):
        sched = TetrisSchedule(K=8, power_budget=128.0)
        assert des_execute_schedule(sched, 430.0) == 0.0

    def test_des_phases_chain(self):
        assert des_execute_phases([50.0, 102.5, 430.0]) == pytest.approx(582.5)
        assert des_execute_phases([]) == 0.0
        assert des_execute_phases([0.0, 0.0]) == 0.0


# ----------------------------------------------------------------------
# Layer 3: pinned regression fixtures (the bugs this harness surfaced).
# ----------------------------------------------------------------------
def _fixture_files() -> list[Path]:
    return sorted(FIXTURES.glob("*.json"))


def test_fixture_directory_is_populated():
    names = {p.stem for p in _fixture_files()}
    assert {
        "chunk_split_conservation",
        "chunk_split_zero_bit",
        "chunk_split_phantom_capacity",
        "zero_demand",
    } <= names


@pytest.mark.parametrize("path", _fixture_files(), ids=lambda p: p.stem)
def test_regression_fixture(path):
    doc = json.loads(path.read_text())
    pt = doc["point"]
    n_set = np.array(doc["n_set"], dtype=np.int64)
    n_reset = np.array(doc["n_reset"], dtype=np.int64)
    scheduler = TetrisScheduler(
        pt["K"], pt["L"], pt["budget"], allow_split=True
    )
    sched = scheduler.schedule(n_set, n_reset)
    expect_doc = doc["expect"]
    assert sched.result == expect_doc["result"], doc["description"]
    assert sched.subresult == expect_doc["subresult"], doc["description"]
    bits = sorted(op.n_bits for op in sched.write0_queue)
    assert bits == expect_doc["write0_bits_sorted"], doc["description"]
    assert sum(bits) == expect_doc["write0_bits_sum"] == int(n_reset.sum())
    # The independent packer, the invariant checker and the DES replay
    # all agree on the fixed behavior.
    point = analytic.OperatingPoint(
        K=pt["K"], L=pt["L"], budget=pt["budget"]
    )
    assert (sched.result, sched.subresult) == analytic.tetris_pack(
        n_set.tolist(), n_reset.tolist(), point
    )
    verify_schedule(
        sched, n_set=n_set, n_reset=n_reset, L=pt["L"],
        units=sched.service_units(),
    )
    assert des_execute_schedule(sched, 430.0) == pytest.approx(
        sched.service_time_ns(430.0)
    )


# ----------------------------------------------------------------------
# Satellite regressions: memo immutability and the zero-demand corner.
# ----------------------------------------------------------------------
class TestMemoImmutability:
    def test_mutating_a_result_does_not_corrupt_the_memo(self):
        scheduler = TetrisScheduler(8, 2.0, 128.0)
        n_set = np.array([3, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        n_reset = np.array([0, 2, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        first = scheduler.schedule(n_set, n_reset)
        # A caller re-pricing its schedule in place (fault-retry style).
        first.result += 5
        first.subresult += 3
        first.write1_queue.append(
            ScheduledOp(unit=7, kind="write1", slot=0, current=1.0, n_bits=1)
        )
        second = scheduler.schedule(n_set, n_reset)
        assert scheduler.memo_hits >= 1
        assert second.result == 1 and second.subresult == 0
        assert len(second.write1_queue) == 1
        # And the served copies are themselves independent objects.
        assert second is not first

    def test_copy_shares_frozen_ops_but_not_queues(self):
        scheduler = TetrisScheduler(8, 2.0, 128.0, memo_size=0)
        sched = scheduler.schedule(
            np.array([2, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64)
        )
        dup = sched.copy()
        assert dup is not sched
        assert dup.write1_queue is not sched.write1_queue
        assert dup.write1_queue == sched.write1_queue
        dup.write1_queue.clear()
        assert sched.write1_queue  # original untouched


class TestZeroDemandCorner:
    def test_scheduler_zero_demand_empty_valid_schedule(self):
        sched = TetrisScheduler(8, 2.0, 128.0).schedule(
            np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64)
        )
        assert sched.result == 0 and sched.subresult == 0
        assert sched.service_units() == 0.0
        assert not sched.write1_queue and not sched.write0_queue
        verify_schedule(
            sched,
            n_set=np.zeros(8, dtype=np.int64),
            n_reset=np.zeros(8, dtype=np.int64),
            L=2.0,
            units=0.0,
        )

    @pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
    def test_silent_write_costs_zero_write_stage(self, name):
        """Rewriting identical data: content-aware schemes must report a
        zero-length write stage; fixed-latency baselines keep their
        constant (they program blindly by design)."""
        cfg = default_config()
        scheme = get_scheme(name, cfg)
        rng = np.random.default_rng(11)
        data = rng.integers(0, 2**63, size=8, dtype=np.uint64)
        state = LineState.from_logical(data)
        if name == "preset":
            # PreSET's demand is the new data's zero count, not the diff.
            out = scheme.write(state, data)
            n_zero = [64 - bin(int(u)).count("1") for u in data]
            expected = analytic.preset_units(
                n_zero, analytic.OperatingPoint.from_config(cfg)
            )
            assert out.units == pytest.approx(expected)
            return
        out = scheme.write(state, data)
        if name in ("tetris", "tetris_relaxed", "palp"):
            assert out.units == 0.0
            assert out.service_ns == pytest.approx(
                cfg.timings.t_read_ns + cfg.analysis_overhead_ns
            )
            assert out.n_set == 0 and out.n_reset == 0
        elif name == "datacon":
            assert out.units == 0.0  # no dirty units, no write stage
            assert out.service_ns == pytest.approx(cfg.timings.t_read_ns)
            assert out.n_set == 0 and out.n_reset == 0
        elif name == "dcw":
            assert out.n_set == 0 and out.n_reset == 0
            assert out.units == 8.0  # timing is content-independent
        else:
            assert out.units == scheme.worst_case_units()


class TestChunkSplitProperties:
    """Property tests over random over-budget demands (satellite fix)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_conserved_and_no_zero_chunks(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            K = int(rng.integers(2, 12))
            L = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            budget = float(rng.integers(2, 12)) + float(rng.choice([0.0, 0.5]))
            if budget < L:
                continue
            scheduler = TetrisScheduler(K, L, budget, allow_split=True)
            n_set = rng.integers(0, 40, size=8)
            n_reset = rng.integers(0, 40, size=8)
            sched = scheduler.schedule(n_set, n_reset)
            for queue, counts, cost in (
                (sched.write1_queue, n_set, 1.0),
                (sched.write0_queue, n_reset, L),
            ):
                per_unit = np.zeros(8, dtype=np.int64)
                for op in queue:
                    assert op.n_bits >= 1
                    assert op.current == pytest.approx(op.n_bits * cost)
                    assert op.current <= budget + 1e-9
                    per_unit[op.unit] += op.n_bits
                np.testing.assert_array_equal(per_unit, counts)

    def test_budget_below_one_cell_raises(self):
        scheduler = TetrisScheduler(8, 4.0, 3.0, allow_split=True)
        with pytest.raises(ScheduleError):
            scheduler.schedule(
                np.zeros(2, dtype=np.int64), np.array([1, 0], dtype=np.int64)
            )

    def test_zero_bit_op_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ScheduledOp(unit=0, kind="write0", slot=0, current=2.0, n_bits=0)
        with pytest.raises(ValueError):
            ScheduledOp(unit=0, kind="write1", slot=0, current=0.0, n_bits=1)


# ----------------------------------------------------------------------
# Layer 4: the paper-claims ledger.
# ----------------------------------------------------------------------
class TestPaperClaimsLedger:
    def test_table_ii_matches_live_config(self):
        cfg = default_config()
        expect("t_set_ns", cfg.timings.t_set_ns)
        expect("t_reset_ns", cfg.timings.t_reset_ns)
        expect("t_read_ns", cfg.timings.t_read_ns)
        expect("K", cfg.K)
        expect("L", cfg.L)
        expect("chip_power_budget", cfg.power.power_budget_per_chip)
        expect("bank_power_budget", cfg.bank_power_budget)
        expect("data_unit_bits", cfg.data_unit_bits)
        expect("analysis_overhead_ns", cfg.analysis_overhead_ns)

    def test_equation_constants_match_analytic_models(self):
        point = analytic.OperatingPoint()
        expect("eq1_conventional_units", analytic.conventional_units(point))
        expect("eq2_flip_n_write_units", analytic.flip_n_write_units(point))
        expect("eq3_two_stage_units", analytic.two_stage_units(point))
        expect("eq4_three_stage_units", analytic.three_stage_units(point))

    def test_band_miss_raises_with_provenance(self):
        with pytest.raises(AssertionError, match="Fig. 10"):
            expect("fig10_tetris_units", 3.0)
        assert not check("fig10_tetris_units", 3.0)
        assert check("fig10_tetris_units", 1.26)

    def test_unknown_claim_lists_ledger(self):
        with pytest.raises(KeyError, match="ledger has"):
            band("nope")

    def test_rankings_cover_the_four_metrics(self):
        assert set(RANKINGS) == {
            "read_latency", "write_latency", "ipc_improvement",
            "running_time",
        }
        for spec in RANKINGS.values():
            assert spec["order"][0] == "tetris"

    def test_every_claim_is_self_consistent(self):
        for claim in CLAIMS.values():
            assert claim.low <= claim.high, claim.name
            if claim.paper is not None:
                assert claim.holds(claim.paper), claim.name
