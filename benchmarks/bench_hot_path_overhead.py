"""Cost of the opt-in subsystems on the scheme hot path.

Tracing (docs/OBSERVABILITY.md), fault injection (docs/FAULTS.md) and
the runtime invariant verifier (docs/SIMLINT.md) make the same bargain:
full machinery when a configuration asks for it, (near) zero cost when
it does not.  Each wraps the same ``WriteScheme.write`` path, so one
workload times them all against ``_write_once``, the pristine
template-method hook that every wrapper calls and the honest baseline:

* the default ``write()`` (all three off: one wear-counter update and
  a few attribute tests per write) stays within 2%;
* a traced ``write()`` (ManualClock, so no clock syscalls), faults on at
  rate 0 (every write verified once) and ``verify_invariants`` each do
  real work and stay within 5x, so a pathological regression trips.

Every gate is a paired timing gate (``_bench_utils.paired_ratios`` and
``judge``): each pair writes the same fresh rows through a fresh
``TetrisWrite`` in both legs.  A scheme reused across legs would serve
the second leg from its schedule memo.  Because wall time alone cannot
resolve 2% on a noisy host, the disabled path is also pinned exactly:
it holds no tracer or fault model and never enters the verifier.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.analysis.report import format_table
from repro.config import FaultConfig, TraceConfig, default_config
from repro.obs import ManualClock, Tracer
from repro.obs.runtime import tracing
from repro.pcm.state import LineState
from repro.schemes.base import get_scheme
from repro.verify import invariants

from _bench_utils import SEED, emit, judge, paired_ratios

N_WRITES = 40
# The 2% gate needs many pairs for its noise floor to sit inside the
# margin (per-pair IQR is 5-11% on a 2-vCPU VM); the 5x gates need few.
WRAPPER_PAIRS = 600
ENABLED_PAIRS = 20
WRAPPER_BOUND = 1.02
ENABLED_BOUND = 5.0

DEFAULT_CFG = default_config()
TRACED_CFG = DEFAULT_CFG.replace(
    trace=TraceConfig(enabled=True, buffer_events=1 << 16, clock="sim")
)
FAULTS_CFG = DEFAULT_CFG.replace(faults=FaultConfig(enabled=True, seed=SEED))
VERIFY_CFG = default_config(verify_invariants=True)


def _rows(pair: int, n_writes: int = N_WRITES) -> np.ndarray:
    """An initial line image plus ``n_writes`` new images, seeded by pair."""
    rng = np.random.default_rng([SEED, pair])
    lines = rng.integers(0, 1 << 63, size=(n_writes + 1, 8), dtype=np.uint64)
    masks = rng.integers(0, 1 << 16, size=(n_writes + 1, 8), dtype=np.uint64)
    return lines ^ masks


def _leg(config, *, pristine: bool = False):
    """A leg that writes the rows through a fresh TetrisWrite on ``config``."""
    traced = config.trace.enabled

    def run(rows: np.ndarray) -> float:
        recording = (
            tracing(Tracer(capacity=1 << 16, clock=ManualClock()))
            if traced else nullcontext()
        )
        with recording:
            scheme = get_scheme("tetris", config)
            write = scheme._write_once if pristine else scheme.write
            state = LineState.from_logical(rows[0])
            t0 = time.perf_counter()
            for row in rows[1:]:
                write(state, row)
            return time.perf_counter() - t0

    return run


def _count_verifier_calls(monkeypatch) -> dict:
    """Count verifier entries, patched at the definition and call sites."""
    import repro.schemes.base as base_mod
    import repro.schemes.tetris as tetris_mod

    calls = {"schedule": 0, "outcome": 0}

    def counting(kind, real):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)
        return wrapper

    schedule = counting("schedule", invariants.verify_schedule)
    outcome = counting("outcome", invariants.verify_outcome)
    monkeypatch.setattr(invariants, "verify_schedule", schedule)
    monkeypatch.setattr(invariants, "verify_outcome", outcome)
    monkeypatch.setattr(tetris_mod, "verify_schedule", schedule)
    monkeypatch.setattr(tetris_mod, "verify_outcome", outcome)
    monkeypatch.setattr(base_mod, "verify_outcome", outcome)
    return calls


def test_default_path_does_no_optional_work(monkeypatch):
    """All flags off: no tracer, no FaultModel, no verifier entry, no
    retry pass, and an installed tracer records nothing."""
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    calls = _count_verifier_calls(monkeypatch)
    rows = _rows(0, 50)
    with tracing(Tracer(capacity=1 << 10, clock=ManualClock())) as tr:
        scheme = get_scheme("tetris", DEFAULT_CFG)
        assert scheme._obs is None and scheme.faults is None
        assert scheme.verify is False
        state = LineState.from_logical(rows[0])
        for row in rows[1:]:
            out = scheme.write(state, row, line=0)
            assert out.attempts == 1 and out.retried_bits == 0
    assert tr.recorded == 0
    assert calls == {"schedule": 0, "outcome": 0}


def test_enabled_legs_do_their_work(monkeypatch):
    """The enabled legs the gates time really trace, fault-check and verify."""
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    rows = _rows(0, 50)

    with tracing(Tracer(capacity=1 << 16, clock=ManualClock())) as tr:
        scheme = get_scheme("tetris", TRACED_CFG)
        state = LineState.from_logical(rows[0])
        for row in rows[1:21]:
            scheme.write(state, row)
    assert scheme._obs is tr and tr.recorded > 0

    assert get_scheme("tetris", FAULTS_CFG).faults is not None

    calls = _count_verifier_calls(monkeypatch)
    _leg(VERIFY_CFG)(rows)
    # 50 writes: one schedule check each; outcome checked twice (component
    # pass in _outcome, state-diff pass in TetrisWrite._write_once).
    assert calls == {"schedule": 50, "outcome": 100}


def test_hot_path_overhead(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    pristine = _leg(DEFAULT_CFG, pristine=True)
    gates = (
        ("default write()", DEFAULT_CFG, WRAPPER_PAIRS, WRAPPER_BOUND),
        ("traced write()", TRACED_CFG, ENABLED_PAIRS, ENABLED_BOUND),
        ("faults on, rate 0", FAULTS_CFG, ENABLED_PAIRS, ENABLED_BOUND),
        ("verify_invariants", VERIFY_CFG, ENABLED_PAIRS, ENABLED_BOUND),
    )
    verdicts = [
        (name, judge(paired_ratios(pristine, _leg(cfg), _rows, pairs),
                     bound, upper=True))
        for name, cfg, pairs, bound in gates
    ]

    rows = [
        (name, v.n, f"{v.median:.4f}", f"{v.q1:.3f}-{v.q3:.3f}",
         f"+/-{v.floor:.4f}", f"<= {v.bound:g}", v.verdict)
        for name, v in verdicts
    ]
    emit(
        "hot_path_overhead",
        format_table(
            ["leg vs _write_once", "pairs", "median", "IQR", "floor",
             "bound", "verdict"],
            rows,
            title=f"TetrisWrite hot-path cost, {N_WRITES}-write legs",
        ),
    )
    failed = [v.describe(name) for name, v in verdicts if v.verdict != "pass"]
    assert not failed, "; ".join(failed)
