"""Tracer installation and config-driven resolution.

One simulation run shares one :class:`~repro.obs.tracer.Tracer` so the
engine, controller, schemes, chips and fault model all land on a single
merged timeline.  Components do **not** thread a tracer through every
constructor; they resolve it once at construction time::

    self._obs = tracer_for(config)   # None unless config.trace.enabled

and guard every hot-path emission with ``if self._obs is not None`` —
the single attribute test that keeps disabled runs bit-identical and
within the <2% overhead bar (``benchmarks/bench_hot_path_overhead.py``).

:func:`tracer_for` returns the process-wide installed tracer, creating
and installing one sized by ``config.trace.buffer_events`` on first use
when tracing is enabled.  Experiments and tests should prefer the
:func:`tracing` context manager, which guarantees the global slot is
restored afterwards (a leaked tracer would silently attach the *next*
run's events to the previous run's timeline).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.obs.tracer import ManualClock, Tracer, WallClock

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.config import SystemConfig

__all__ = [
    "install_tracer",
    "uninstall_tracer",
    "active_tracer",
    "tracer_for",
    "tracing",
    "emit_schedule",
]

_ACTIVE: Tracer | None = None


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide active tracer; returns it."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def uninstall_tracer() -> Tracer | None:
    """Clear the active tracer slot; returns whatever was installed."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def active_tracer() -> Tracer | None:
    return _ACTIVE


def tracer_for(config: "SystemConfig | None") -> Tracer | None:
    """The tracer an instrumented component should record into.

    ``None`` (the overwhelmingly common case) unless the configuration
    enables tracing; when it does, the installed tracer is returned —
    one is created and installed on first demand so deep construction
    sites (``get_scheme(name, config)``) need no extra plumbing.
    """
    tc = getattr(config, "trace", None)
    if tc is None or not tc.enabled:
        return None
    tracer = _ACTIVE
    if tracer is None:
        clock = WallClock() if tc.clock == "wall" else ManualClock()
        tracer = install_tracer(Tracer(capacity=tc.buffer_events, clock=clock))
    return tracer


@contextmanager
def tracing(tracer: Tracer | None = None, *, capacity: int = 1 << 16) -> Iterator[Tracer]:
    """Install a tracer for the dynamic extent of a block, then restore.

    The previously installed tracer (usually ``None``) comes back on
    exit even if the block raises, so traced experiments cannot leak
    their timeline into later runs in the same process.
    """
    global _ACTIVE
    prev = _ACTIVE
    t = tracer if tracer is not None else Tracer(capacity=capacity)
    _ACTIVE = t
    try:
        yield t
    finally:
        _ACTIVE = prev


# ----------------------------------------------------------------------
# Timeline helper shared by chip- and scheme-level instrumentation.
# ----------------------------------------------------------------------
def emit_schedule(
    tracer: Tracer,
    schedule,
    *,
    base_ns: float,
    t_set_ns: float,
    pid: str,
    bits_of=None,
    budget: float | None = None,
) -> int:
    """Emit one Tetris schedule as FSM0/FSM1 lane slices + a GCP counter.

    ``schedule`` is a :class:`~repro.core.schedule.TetrisSchedule`;
    write-1 bursts land on the ``FSM1 write-1`` lane (one slice of
    ``t_set`` per write unit) and write-0 bursts on the ``FSM0 write-0``
    lane (one slice of ``t_set/K`` per sub-slot) — the rendering whose
    overlap is the paper's Figure 4.  ``bits_of(op) -> int`` lets a chip
    restrict the slices to its own lane bits (ops programming zero cells
    on this chip are skipped); ``budget`` adds per-sub-slot current
    counter samples against the charge-pump budget.  Returns the number
    of slices emitted.
    """
    K = schedule.K
    t_sub = t_set_ns / K
    emitted = 0
    for op in schedule.write1_queue:
        bits = op.n_bits if bits_of is None else bits_of(op)
        if bits <= 0:
            continue
        tracer.complete(
            f"write1 u{op.unit}",
            ts_ns=base_ns + op.slot * t_set_ns,
            dur_ns=t_set_ns,
            pid=pid,
            tid="FSM1 write-1",
            cat="fsm",
            args={"unit": op.unit, "slot": op.slot, "bits": int(bits),
                  "chunk": op.chunk},
        )
        emitted += 1
    for op in schedule.write0_queue:
        bits = op.n_bits if bits_of is None else bits_of(op)
        if bits <= 0:
            continue
        tracer.complete(
            f"write0 u{op.unit}",
            ts_ns=base_ns + op.slot * t_sub,
            dur_ns=t_sub,
            pid=pid,
            tid="FSM0 write-0",
            cat="fsm",
            args={"unit": op.unit, "subslot": op.slot, "bits": int(bits),
                  "chunk": op.chunk},
        )
        emitted += 1
    if budget is not None:
        occ = schedule.occupancy()
        for s, current in enumerate(occ):
            tracer.counter(
                f"{pid}.gcp_current",
                float(current),
                ts_ns=base_ns + s * t_sub,
                pid=pid,
                cat="fsm",
            )
        # Close the signal at the end of the schedule so the counter
        # track drops back to zero between writes.
        tracer.counter(
            f"{pid}.gcp_current",
            0.0,
            ts_ns=base_ns + max(len(occ), 1) * t_sub,
            pid=pid,
            cat="fsm",
        )
    return emitted
