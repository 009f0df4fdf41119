"""Minimal deterministic discrete-event engine.

The full-system experiments replay memory traces through cores, a memory
controller and PCM banks; all of them communicate by scheduling callbacks
on this engine.  Design points:

* **Determinism** — events fire in ``(time, seq)`` order, where ``seq``
  is a monotone sequence number, so two runs of the same trace produce
  identical schedules (the reproduction's experiments must be exactly
  repeatable).
* **No processes/coroutines** — callbacks keep the kernel tiny and fast;
  components hold their own state machines (as the paper's FSMs do).
* **Object-free entries** — a queued event is a plain ``(time, seq, fn,
  args)`` tuple.  Heap sift comparisons are C-speed tuple compares on
  floats/ints (``seq`` is unique, so ``fn`` is never compared), and
  scheduling allocates nothing but the tuple.  ``schedule``/``at``
  return ``seq`` as an opaque handle for :meth:`Simulator.cancel`.
* **Cancellation** — a cancelled ``seq`` goes in a set; the entry stays
  queued and is discarded (not fired, not counted) when it is popped.
* **Same-time FIFO** — an event whose time is not after ``now`` (every
  zero-delay kick of the memory controller, about half of all events in
  a full-system run) goes on a deque instead of the heap.

Why the FIFO keeps the ``(time, seq)`` order exactly: the clock only
moves forward to the heap's head, and an entry goes on the heap only if
its time is after ``now`` at the moment it is scheduled.  So every heap
entry whose time equals the current ``now`` was scheduled *before* the
clock reached ``now``, and its ``seq`` is lower than that of any FIFO
entry (all of which were scheduled at ``now``).  The loop therefore
fires heap entries with time ``<= now`` first, then the FIFO in arrival
order, and only then advances the clock to the heap's head; the FIFO is
always empty when the clock moves.  Routing compares ``time > now``
(never float ``==``), so a positive delay that rounding absorbs into
``now`` also lands on the FIFO, where ``seq`` order puts it.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from typing import Any, Callable

__all__ = ["Simulator"]

#: A queued event: ``(time, seq, fn, args)``.
_Entry = tuple[float, int, Callable[..., Any], tuple]


class Simulator:
    """Event loop with a nanosecond clock.

    Typical use::

        sim = Simulator()
        handle = sim.schedule(10.0, handler, arg1)
        sim.cancel(handle)        # optional: it will not fire
        sim.run()                 # drain all events
        sim.run(until=1e6)        # or stop the clock at 1 ms
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Events after `now`, ordered by (time, seq).
        self._heap: list[_Entry] = []
        # Events at `now`, in seq order (see the module docstring).
        self._fifo: deque[_Entry] = deque()
        # Seqs of queued events that must not fire.
        self._cancelled: set[int] = set()
        self._seq = 0
        self.events_fired = 0
        # Optional repro.obs.Tracer assigned by the system builder when
        # tracing is enabled; None keeps run() on the untraced fast path.
        # Must be set before run() — the check is hoisted out of the loop.
        self.tracer = None

    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args) -> int:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        Returns a handle for :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        now = self.now
        time = now + delay
        self._seq = seq = self._seq + 1
        if time > now:
            heapq.heappush(self._heap, (time, seq, fn, args))
        else:
            self._fifo.append((time, seq, fn, args))
        return seq

    def at(self, time: float, fn: Callable, *args) -> int:
        """Schedule ``fn(*args)`` at an absolute time.

        Returns a handle for :meth:`cancel`.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        self._seq = seq = self._seq + 1
        if time > self.now:
            heapq.heappush(self._heap, (time, seq, fn, args))
        else:
            self._fifo.append((time, seq, fn, args))
        return seq

    def cancel(self, handle: int) -> None:
        """Prevent a scheduled event from firing (lazy removal).

        ``handle`` is what :meth:`schedule`/:meth:`at` returned for an
        event that has not fired yet.
        """
        self._cancelled.add(handle)

    # ------------------------------------------------------------------
    def _head(self) -> _Entry | None:
        """The next live entry in firing order, left queued.

        Cancelled entries at the front of either queue are dropped.
        """
        heap, fifo, cancelled = self._heap, self._fifo, self._cancelled
        while fifo and fifo[0][1] in cancelled:
            cancelled.discard(fifo.popleft()[1])
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
        if heap and (not fifo or heap[0][0] <= self.now):
            return heap[0]
        return fifo[0] if fifo else None

    def step(self) -> bool:
        """Fire the next live event.  Returns False when none remain."""
        entry = self._head()
        if entry is None:
            return False
        if self._fifo and entry is self._fifo[0]:
            self._fifo.popleft()
        else:
            heapq.heappop(self._heap)
        time, _seq, fn, args = entry
        if time < self.now:  # defensive; cannot happen via the API
            raise RuntimeError("event time went backwards")
        self.now = time
        self.events_fired += 1
        if self.tracer is not None:
            self.tracer.instant(
                getattr(fn, "__qualname__", repr(fn)),
                ts_ns=time,
                pid="sim",
                tid="events",
                cat="engine",
            )
        try:
            fn(*args)
        except Exception as exc:
            # Stamp the simulated time so a fault escaping a callback
            # (e.g. an uncorrectable write) is attributable in traces.
            exc.add_note(f"while firing event at sim time {time} ns")
            raise
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queues, optionally bounded in time or events.

        ``until`` stops the clock *after* processing every event at or
        before that time; it must not be before ``now`` (the clock never
        moves backwards).  ``max_events`` is a safety valve for tests.

        The drain loop is inlined rather than delegating to :meth:`step`:
        the tracer check is hoisted to a single branch decision before
        the loop (``tracer`` must not be attached mid-run), the
        monotone-time guard is unnecessary here because :meth:`at`
        already rejects past times, and ``events_fired`` is summed once
        on the way out.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until the past ({until} < {self.now})")
        limit = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        heap, fifo, cancelled = self._heap, self._fifo, self._cancelled
        heappop, popleft = heapq.heappop, fifo.popleft
        tracer = self.tracer
        now = self.now
        fired = 0
        try:
            while True:
                if heap and (not fifo or heap[0][0] <= now):
                    if heap[0][0] > limit:
                        # The FIFO is empty here: it wins over any heap
                        # entry later than now.
                        self.now = until
                        return
                    time, seq, fn, args = heappop(heap)
                elif fifo:
                    time, seq, fn, args = popleft()
                else:
                    break
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self.now = now = time
                fired += 1
                if tracer is not None:
                    tracer.instant(
                        getattr(fn, "__qualname__", repr(fn)),
                        ts_ns=time,
                        pid="sim",
                        tid="events",
                        cat="engine",
                    )
                try:
                    fn(*args)
                except Exception as exc:
                    exc.add_note(f"while firing event at sim time {time} ns")
                    raise
                if fired >= budget:
                    raise RuntimeError(f"exceeded max_events={max_events}")
        finally:
            self.events_fired += fired
        if until is not None:
            self.now = max(self.now, until)

    def _peek_time(self) -> float | None:
        """Time of the next live event (None when none remain)."""
        entry = self._head()
        return None if entry is None else entry[0]

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        cancelled = self._cancelled
        return sum(
            1 for entry in (*self._heap, *self._fifo) if entry[1] not in cancelled
        )
