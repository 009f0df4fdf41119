"""Host-speed normalization, probed from a sibling process.

On a shared virtual machine the speed of a core drifts by up to 2x
over seconds to minutes, which swamps the differences a change to the
program makes.  :class:`SpeedMeter` asks a sibling process — this file
run as a script — to run a short, fixed pure-Python probe (heap, dict
and attribute work, like the DES loop) before every cell and once
after the last.  The program's process blocks while the sibling
probes, so the sibling has a core to itself, and its heap, allocator
and caches never hold the program's state.  Each cell's wall time is
rescaled by the reference probe time over the mean of the probes on
either side of it, giving *seconds at reference speed*: a slower
program still reads slower, a slower host does not.  The time spent
waiting for probes is taken out of every timing, and the benchmark
reports the raw wall times beside the rescaled ones.

:func:`normalize_window` rescales a service job's due-to-done latency
by the probes the server ran around it.
"""

from __future__ import annotations

import functools
import heapq
import statistics
import subprocess
import sys
import threading
import time

#: Probe seconds per iteration that define reference speed (a typical
#: value on a 2-core cloud VM; the level only scales reported seconds).
REFERENCE_S_PER_ITER = 1.6e-6
#: Probe length before each grid cell (~12 ms) and service cell (~4 ms,
#: short enough not to add noticeable load to the server).
GRID_PROBE_ITERS = 8000
SERVICE_PROBE_ITERS = 2500
#: Probes this close to a service job set its speed: the host drifts
#: over seconds, while one 4 ms probe is noisy and a job spans only one
#: or two of them.
SPEED_WINDOW_S = 1.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def probe_work(n: int) -> int:
    """The fixed probe: a small event-heap and table workload."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(n):
        item = _Item((i * 7919) % 1009, i)
        heapq.heappush(heap, (item.key, i, item))
        table[item.key & 255] = table.get(item.key & 255, 0) + item.value
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].value
    return acc + len(table)


class ProbeSibling:
    """This file run as a child: one probe per request line, timed there."""

    def __init__(self, iterations: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(iterations)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.proc.stdout.readline()                 # imported and ready

    def probe(self) -> float:
        """Seconds the sibling took for one probe."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class SpeedMeter:
    """Probe samples around cells, and the normalization they give."""

    def __init__(self, iterations: int) -> None:
        self.iterations = iterations
        self.sibling: ProbeSibling | None = None    # started on first use
        self.starts: list[float] = []       # time.monotonic() at request
        self.waits: list[float] = []        # seconds blocked per probe
        self.durations: list[float] = []    # probe seconds, in the sibling
        self.cells: list[tuple[int, float]] = []   # (probe index before, wall)
        self._lock = threading.Lock()

    @property
    def wait_s(self) -> float:
        return sum(self.waits)

    def sample(self) -> None:
        with self._lock:
            t0 = time.monotonic()
            if self.sibling is None:
                self.sibling = ProbeSibling(self.iterations)
            self.durations.append(self.sibling.probe())
            self.starts.append(t0)
            self.waits.append(time.monotonic() - t0)

    def close(self) -> None:
        if self.sibling is not None:
            self.sibling.close()

    def around_cells(self, fn):
        """Wrap a per-cell function so a probe runs before each call."""

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            self.sample()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cells.append((len(self.durations) - 1, time.perf_counter() - t0))

        return cell

    def speed_factor(self) -> float:
        """Reference probe time over the median probe: above 1, a fast host."""
        return REFERENCE_S_PER_ITER * self.iterations / statistics.median(self.durations)

    def normalize(self, wall_s: float) -> float:
        """``wall_s`` (probe waits excluded) in seconds at reference speed.

        Call after one more :meth:`sample` that closes the last cell.
        """
        ref = REFERENCE_S_PER_ITER * self.iterations
        last = len(self.durations) - 1
        total = 0.0
        for i, dt in self.cells:
            probe = (self.durations[i] + self.durations[min(i + 1, last)]) / 2.0
            total += dt * ref / probe
        outside = wall_s - sum(dt for _, dt in self.cells)
        return total + outside * ref / statistics.median(self.durations)


def without_probes(due: float, done: float, starts, waits) -> float:
    """A ``[due, done]`` latency minus the probe waits inside it (raw)."""
    overlap = sum(
        max(0.0, min(t + w, done) - max(t, due)) for t, w in zip(starts, waits)
    )
    return done - due - overlap


def normalize_window(due: float, done: float, starts, waits, durations,
                     iterations: int) -> float:
    """A ``[due, done]`` latency without probe waits, at reference speed.

    For a server that probes before every cell it executes: the waits
    inside the window delayed the request and are subtracted; the speed
    is the median probe within ``SPEED_WINDOW_S`` of the window (of all
    probes, if none is that near).
    """
    near = [
        d for t, d in zip(starts, durations)
        if due - SPEED_WINDOW_S <= t <= done + SPEED_WINDOW_S
    ]
    probe = statistics.median(near or durations)
    latency = without_probes(due, done, starts, waits)
    return latency * REFERENCE_S_PER_ITER * iterations / probe


def _serve(iterations: int) -> None:
    out = sys.stdout.buffer
    out.write(b"ready\n")
    out.flush()
    while sys.stdin.buffer.readline():
        t0 = time.perf_counter()
        probe_work(iterations)
        out.write(f"{time.perf_counter() - t0!r}\n".encode())
        out.flush()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
