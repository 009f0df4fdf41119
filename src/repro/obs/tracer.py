"""The event recorder at the heart of ``repro.obs`` (docs/OBSERVABILITY.md).

A :class:`Tracer` records typed :class:`TraceEvent` s — spans (an
interval of work on a timeline lane), instants (a point annotation) and
counters (a sampled signal) — into a **preallocated ring buffer**.  The
design constraints come from the simulator it observes:

* **Near-zero cost when off.**  Instrumented components resolve their
  tracer once at construction (``repro.obs.tracer_for(config)`` returns
  ``None`` unless ``config.trace.enabled``), so a disabled run pays one
  ``if self._obs is None`` attribute test per instrumentation site and
  executes byte-for-byte the same simulation (`tests/test_obs.py`
  pins bit-identity, ``benchmarks/bench_hot_path_overhead.py`` pins <2%).
* **Bounded memory.**  The ring holds ``capacity`` events; older events
  are overwritten and counted in :attr:`Tracer.dropped` instead of
  growing without bound under Fig 11-14 scale runs.
* **Deterministic.**  Events are stamped with explicit caller-provided
  timestamps where the simulator knows them analytically (the DES
  computes every duration before it happens), falling back to the
  tracer's :attr:`clock`.  With the default :class:`SimClock` /
  :class:`ManualClock` domains a fixed seed reproduces an identical
  event stream; the :class:`WallClock` domain exists for profiling the
  host process (benchmarks), not for simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "TraceEvent",
    "Tracer",
    "SpanHandle",
    "SimClock",
    "ManualClock",
    "WallClock",
]

# Event kinds (mapped to Chrome trace phases by repro.obs.export).
SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded observation.

    ``ts_ns`` is in the tracer's clock domain (simulated nanoseconds in
    the default configuration).  ``seq`` is a monotone sequence number
    breaking timestamp ties deterministically, mirroring the DES
    engine's own tie-breaking convention.
    """

    kind: str
    name: str
    ts_ns: float
    pid: str
    tid: str
    seq: int
    dur_ns: float = 0.0
    value: float = 0.0
    args: Mapping[str, Any] | None = None
    cat: str = ""

    @property
    def end_ns(self) -> float:
        return self.ts_ns + self.dur_ns


# ----------------------------------------------------------------------
# Clock domains.
# ----------------------------------------------------------------------
class SimClock:
    """Reads the simulated-nanosecond clock of a DES ``Simulator``."""

    domain = "sim"

    def __init__(self, sim) -> None:
        self._sim = sim

    def now_ns(self) -> float:
        return float(self._sim.now)


class ManualClock:
    """Simulated-time clock for standalone (no-DES) instrumented loops.

    Callers advance it explicitly (e.g. by each write's ``service_ns``),
    which keeps traces of scheme-only experiments deterministic.
    """

    domain = "sim"

    def __init__(self, start_ns: float = 0.0) -> None:
        self.now = float(start_ns)

    def now_ns(self) -> float:
        return self.now

    def advance(self, delta_ns: float) -> float:
        if delta_ns < 0:
            raise ValueError("cannot advance a clock backwards")
        self.now += float(delta_ns)
        return self.now


class WallClock:
    """Host-process clock (profiling only; never a simulation result)."""

    domain = "wall"

    def __init__(self) -> None:
        import time

        self._counter = time.perf_counter_ns
        self._t0 = self._counter()

    def now_ns(self) -> float:
        return float(self._counter() - self._t0)


# ----------------------------------------------------------------------
# The tracer.
# ----------------------------------------------------------------------
class SpanHandle:
    """Context manager returned by :meth:`Tracer.span`.

    Measures the enclosed block on the tracer's clock and records one
    span event at exit.  Mutate :attr:`args` inside the block to attach
    results discovered while the span was open.
    """

    __slots__ = ("_tracer", "name", "pid", "tid", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, pid: str, tid: str,
                 cat: str, args: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.pid = pid
        self.tid = tid
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> "SpanHandle":
        self._t0 = self._tracer.clock.now_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._tracer.clock.now_ns()
        self._tracer.complete(
            self.name,
            ts_ns=self._t0,
            dur_ns=max(0.0, end - self._t0),
            pid=self.pid,
            tid=self.tid,
            cat=self.cat,
            args=self.args,
        )


class Tracer:
    """Typed event recorder over a fixed-capacity ring buffer."""

    def __init__(
        self,
        capacity: int = 1 << 16,
        *,
        clock: SimClock | ManualClock | WallClock | None = None,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = int(capacity)
        self._buf: list[TraceEvent | None] = [None] * self.capacity
        self._count = 0  # events ever recorded (also the seq source)
        self.clock = clock if clock is not None else ManualClock()
        if metrics is None:
            from repro.obs.metrics import MetricRegistry

            metrics = MetricRegistry()
        self.metrics = metrics

    # ------------------------------------------------------------------
    def bind_clock(self, clock) -> None:
        """Swap the clock domain (e.g. onto a freshly built Simulator)."""
        self.clock = clock

    @property
    def recorded(self) -> int:
        """Events ever recorded, including those the ring overwrote."""
        return self._count

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound."""
        return max(0, self._count - self.capacity)

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    # ------------------------------------------------------------------
    def _record(self, ev: TraceEvent) -> None:
        self._buf[self._count % self.capacity] = ev
        self._count += 1

    def complete(
        self,
        name: str,
        *,
        ts_ns: float | None = None,
        dur_ns: float = 0.0,
        pid: str = "sim",
        tid: str = "main",
        args: Mapping[str, Any] | None = None,
        cat: str = "",
    ) -> None:
        """Record a span with an explicit start and duration.

        This is the workhorse for DES components: the simulator knows
        every interval analytically (a write occupies ``[now, now +
        service_ns)``), so spans are emitted retrospectively rather than
        via enter/exit pairs.
        """
        if ts_ns is None:
            ts_ns = self.clock.now_ns()
        self._record(
            TraceEvent(SPAN, name, float(ts_ns), pid, tid, self._count,
                       dur_ns=float(dur_ns), args=args, cat=cat)
        )

    def instant(
        self,
        name: str,
        *,
        ts_ns: float | None = None,
        pid: str = "sim",
        tid: str = "main",
        args: Mapping[str, Any] | None = None,
        cat: str = "",
    ) -> None:
        """Record a point event (a retry, a retirement, a stall)."""
        if ts_ns is None:
            ts_ns = self.clock.now_ns()
        self._record(
            TraceEvent(INSTANT, name, float(ts_ns), pid, tid, self._count,
                       args=args, cat=cat)
        )

    def counter(
        self,
        name: str,
        value: float,
        *,
        ts_ns: float | None = None,
        pid: str = "sim",
        cat: str = "",
    ) -> None:
        """Record one sample of a numeric signal (queue depth, current)."""
        if ts_ns is None:
            ts_ns = self.clock.now_ns()
        self._record(
            TraceEvent(COUNTER, name, float(ts_ns), pid, name, self._count,
                       value=float(value), cat=cat)
        )

    def span(
        self,
        name: str,
        *,
        pid: str = "sim",
        tid: str = "main",
        cat: str = "",
        args: dict | None = None,
    ) -> SpanHandle:
        """Clock-measured span context manager (for live code blocks)."""
        return SpanHandle(self, name, pid, tid, cat, args)

    # ------------------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """Surviving events, oldest first (ring order reconstructed)."""
        if self._count <= self.capacity:
            return [ev for ev in self._buf[: self._count] if ev is not None]
        head = self._count % self.capacity
        return [ev for ev in (self._buf[head:] + self._buf[:head]) if ev is not None]

    def clear(self) -> None:
        """Drop all recorded events (capacity and clock are kept)."""
        self._buf = [None] * self.capacity
        self._count = 0
