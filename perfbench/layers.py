"""Per-layer wall-clock tracing, installed from outside the program.

:func:`install` wraps the public entry point of each layer of a cell —
engine, trace generation, write-service pricing, the DES run, the
fastpath pricer and queueing model, the recheck, cache and journal I/O,
the service's submit handler — with a span recorded through the
program's own ``repro.obs.Tracer`` on a ``WallClock``.  Every span
carries an id, its parent's id (a ``contextvars`` stack, so spans in
executor threads keep their parent) and the id of the cell it belongs
to.  ``FRFCFSPolicy.select`` is counted, not spanned: it runs millions
of times per grid.

Nothing here edits ``src/``; uninstrumented runs never import this
module.  :func:`layer_summary` turns the spans into calls, total and
self time per layer, where self time is a span's duration minus the
part of it its children cover.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: Span names, one per layer boundary.
SPAN_NAMES = (
    "parallel.engine", "trace.generate", "fullsystem.precompute", "des.run",
    "fastpath.price", "fastpath.model_cell", "fastpath.recheck",
    "cache.get", "cache.put", "journal.append", "service.submit",
)

_SPAN = contextvars.ContextVar("perfbench_span", default=0)
_CELL = contextvars.ContextVar("perfbench_cell", default="")


class LayerTracer:
    """Spans on a ``repro.obs`` Tracer plus plain counters."""

    def __init__(self, role: str) -> None:
        from repro.obs import Tracer, WallClock

        self.role = role
        self.tracer = Tracer(capacity=1 << 20, clock=WallClock())
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._policies: list = []

    # ------------------------------------------------------------------
    def _open(self) -> tuple[int, int, contextvars.Token, float]:
        sid = next(self._ids)
        parent = _SPAN.get()
        return sid, parent, _SPAN.set(sid), self.tracer.clock.now_ns()

    def _close(self, name: str, sid: int, parent: int, token, t0: float) -> None:
        t1 = self.tracer.clock.now_ns()
        _SPAN.reset(token)
        with self._lock:
            self.tracer.complete(
                name, ts_ns=t0, dur_ns=t1 - t0, pid=self.role,
                tid=threading.current_thread().name,
                args={"id": sid, "parent": parent, "cell": _CELL.get()},
            )

    def wrap(self, name: str, fn, on_result=None):
        """A synchronous span around ``fn``."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid, parent, token, t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, token, t0)
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def wrap_async(self, name: str, fn):
        """A span around a coroutine function (await included)."""

        @functools.wraps(fn)
        async def spanned(*args, **kwargs):
            sid, parent, token, t0 = self._open()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, token, t0)

        return spanned

    # ------------------------------------------------------------------
    def spans(self) -> list[dict]:
        return [
            {
                "name": ev.name, "start_ns": ev.ts_ns, "end_ns": ev.end_ns,
                "id": ev.args["id"], "parent": ev.args["parent"],
                "cell": ev.args["cell"], "pid": ev.pid, "tid": ev.tid,
            }
            for ev in self.tracer.events()
        ]

    def dump(self, path, **extra) -> None:
        """Write spans and counters as one JSON document."""
        if self.tracer.dropped:
            raise RuntimeError(f"tracer ring dropped {self.tracer.dropped} spans")
        # time.monotonic() at the tracer clock's zero, to place the spans
        # against the windows another process timed.
        origin = time.monotonic() - self.tracer.clock.now_ns() * 1e-9
        doc = {"spans": self.spans(), "counts": dict(self.counts),
               "clock_origin_s": origin, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(lt: LayerTracer) -> None:
    """Patch every layer entry point to record into ``lt``."""
    import repro.experiments.fullsystem as fullsystem
    import repro.fastpath.pricer as pricer
    import repro.parallel.engine as engine
    import repro.trace.synthetic as synthetic
    from repro.memctrl.frfcfs import FRFCFSPolicy
    from repro.parallel.journal import SweepJournal
    from repro.parallel.resultcache import ResultCache
    from repro.service.server import SweepService

    counts = lt.counts

    engine.SweepEngine.run = lt.wrap("parallel.engine", engine.SweepEngine.run)

    run_cell = engine._run_cell

    @functools.wraps(run_cell)
    def cell_scope(payload):
        # payload: (idx, workload, scheme, seed, variant, rpc, cfg, trace, lane)
        token = _CELL.set(f"{payload[1]}/{payload[2]}/{payload[8]}@{payload[3]}")
        try:
            return run_cell(payload)
        finally:
            _CELL.reset(token)

    engine._run_cell = cell_scope
    synthetic.generate_trace = lt.wrap("trace.generate", synthetic.generate_trace)
    fullsystem.precompute_write_service = lt.wrap(
        "fullsystem.precompute", fullsystem.precompute_write_service
    )

    def after_des(res) -> None:
        counts["sim.events"] += int(res.events)
        counts["des.requests"] += int(res.controller.completed)
        counts["memctrl.drain_entries"] += sum(p.drain_entries for p in lt._policies)
        lt._policies.clear()

    fullsystem.run_fullsystem = lt.wrap(
        "des.run", fullsystem.run_fullsystem, on_result=after_des
    )
    pricer.price_write_service = lt.wrap("fastpath.price", pricer.price_write_service)
    pricer.model_cell = lt.wrap("fastpath.model_cell", pricer.model_cell)
    engine.recheck_rows = lt.wrap("fastpath.recheck", engine.recheck_rows)

    def after_get(row) -> None:
        counts["cache.hits"] += row is not None

    ResultCache.get = lt.wrap("cache.get", ResultCache.get, on_result=after_get)
    ResultCache.put = lt.wrap("cache.put", ResultCache.put)
    SweepJournal.append = lt.wrap("journal.append", SweepJournal.append)
    SweepService._handle_submit = lt.wrap_async(
        "service.submit", SweepService._handle_submit
    )

    select = FRFCFSPolicy.select

    @functools.wraps(select)
    def counted_select(self, bank, read_queue, write_queue):
        counts["memctrl.select.calls"] += 1
        return select(self, bank, read_queue, write_queue)

    FRFCFSPolicy.select = counted_select
    policy_init = FRFCFSPolicy.__init__

    @functools.wraps(policy_init)
    def registered_init(self, *args, **kwargs):
        policy_init(self, *args, **kwargs)
        lt._policies.append(self)

    FRFCFSPolicy.__init__ = registered_init

    # run_in_executor does not carry the caller's context into the
    # worker thread; copy it so executor-side spans keep their parent.
    run_in_executor = asyncio.BaseEventLoop.run_in_executor

    def run_in_executor_with_context(self, executor, func, *args):
        return run_in_executor(
            self, executor, contextvars.copy_context().run, func, *args
        )

    asyncio.BaseEventLoop.run_in_executor = run_in_executor_with_context


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------
def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """The union of ``intervals`` as sorted, disjoint intervals."""
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def unattributed_s(spans: list[dict], windows, origin_s: float) -> float:
    """Seconds of ``windows`` (``time.monotonic()``) that no span covers.

    Spans of concurrent threads overlap, so this is the busy time minus
    the union of all spans, not minus the sum of their self times.
    """
    ivs = [(origin_s + s["start_ns"] * 1e-9, origin_s + s["end_ns"] * 1e-9) for s in spans]
    return sum(hi - lo - union_length(ivs, lo, hi) for lo, hi in merge_intervals(windows))


def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time in seconds, in ``spans`` order."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = []
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = children.get(s["id"], [])
        out.append((dur - union_length(kids, s["start_ns"], s["end_ns"])) * 1e-9)
    return out


def layer_summary(spans: list[dict]) -> dict[str, dict]:
    """``{name: {calls, total_s, self_s}}`` for every span name seen."""
    out: dict[str, dict] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES
    }
    for s, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (s["end_ns"] - s["start_ns"]) * 1e-9
        entry["self_s"] += self_s
    return out
