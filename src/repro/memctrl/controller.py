"""Event-driven memory controller binding queues, policy and banks.

The controller is deliberately agnostic of *what* a write costs: a
:class:`ServiceModel` prices each request, which is how the same
controller serves every write scheme — the Fig 11-14 experiments swap the
service model, nothing else.  Two implementations exist in
:mod:`repro.experiments.fullsystem`: a precomputed one (per-write service
times from the vectorized scheme pipeline) and a functional one (live
:class:`~repro.pcm.device.PCMDevice` with real cell contents).

Flow control: cores submit requests; a full queue returns ``False`` and
the core registers a waiter callback that fires when a slot frees —
modelling the pipeline backpressure that makes slow writes throttle
issue.  Read forwarding: a read hitting a line with a pending write is
answered from the write queue in ``forward_latency_ns``.

Scheduling is event-driven.  A kick (one per timestamp with activity)
walks only the banks in a *wake* bitmask, in ascending order, in a
single pass: a bank woken above the current position during the pass is
served in the same pass, one woken at or below it waits for the next
kick.  A bank ``b`` is woken by

* a request submitted to ``b`` (including a read that pauses ``b``'s
  in-flight write);
* a completion on ``b``, of the main service or of the subarray read
  port;
* a write starting service on ``b`` when ``subarrays_per_bank > 1``, so
  the next kick tries a read under that write;
* drain mode turning on, which wakes every bank with a pending write
  (:meth:`MemoryController.flush_writes` sets ``force_drain``, which
  turns it on at the next observation unless it is already on).

Invariant: an idle, unpaused bank that is not woken has no candidate
under the current drain state, so :meth:`FRFCFSPolicy.select` is called
only for woken idle banks that have one, and never returns None here.

Drain state is observed only inside a kick, exactly where a scan of
every bank would have called ``select``: at the first idle, unpaused
bank at or after the current position, whenever an observation there
would change the state (the write occupancy crossed a watermark since
the last observation, or ``force_drain`` was just set).  An observation
that would change nothing is skipped, which leaves ``drain_entries`` and
every scheduling decision as they were under the full scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.config import SystemConfig
from repro.memctrl.frfcfs import FRFCFSPolicy, RowBufferModel
from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind
from repro.obs.runtime import tracer_for
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram, LatencyStat, TimeSeries

__all__ = ["ServiceModel", "ControllerStats", "MemoryController"]


class ServiceModel(Protocol):
    """Prices requests; optionally commits write content."""

    def read_ns(self, req: MemRequest) -> float: ...

    def write_ns(self, req: MemRequest) -> float: ...


@dataclass
class ControllerStats:
    """Aggregate controller metrics for one run.

    ``warmup_requests`` implements the standard measurement methodology:
    the first N completions (cold caches, empty queues) are counted for
    conservation but excluded from the latency statistics.
    """

    warmup_requests: int = 0
    completed_reads: int = 0
    completed_writes: int = 0

    read_latency: LatencyStat = field(default_factory=lambda: LatencyStat("read"))
    write_latency: LatencyStat = field(default_factory=lambda: LatencyStat("write"))
    read_wait: LatencyStat = field(default_factory=lambda: LatencyStat("read_wait"))
    write_wait: LatencyStat = field(default_factory=lambda: LatencyStat("write_wait"))
    # Tail-latency histograms (percentiles via Histogram.percentile).
    read_hist: Histogram = field(
        default_factory=lambda: Histogram("read", bin_width=50.0, num_bins=256)
    )
    write_hist: Histogram = field(
        default_factory=lambda: Histogram("write", bin_width=200.0, num_bins=256)
    )
    forwarded_reads: int = 0
    read_stalls: int = 0
    write_stalls: int = 0
    write_pauses: int = 0
    coalesced_writes: int = 0
    subarray_reads: int = 0
    bank_busy_ns: dict[int, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """All completions, warmup included (conservation checks)."""
        return self.completed_reads + self.completed_writes

    def record(self, req: MemRequest) -> None:
        if req.kind is ReqKind.READ:
            self.completed_reads += 1
        else:
            self.completed_writes += 1
        if self.completed <= self.warmup_requests:
            return  # warmup: counted for conservation, excluded from stats
        if req.kind is ReqKind.READ:
            self.read_latency.add(req.latency_ns)
            self.read_wait.add(req.queue_wait_ns)
            self.read_hist.add(req.latency_ns)
        else:
            self.write_latency.add(req.latency_ns)
            self.write_wait.add(req.queue_wait_ns)
            self.write_hist.add(req.latency_ns)


class MemoryController:
    """FR-FCFS controller over ``num_banks`` independently-busy banks."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        service: ServiceModel,
        *,
        row_buffer: RowBufferModel | None = None,
        forward_latency_ns: float = 1.0,
        enable_forwarding: bool = True,
        warmup_requests: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.service = service
        mc = config.memctrl
        self.read_queue = BoundedQueue(mc.read_queue_entries, "read")
        self.write_queue = BoundedQueue(mc.write_queue_entries, "write")
        # SJF drain needs side-effect-free service prediction; models
        # that can provide it expose predict_write_ns (the precomputed
        # model does, the functional one does not).
        predictor = getattr(service, "predict_write_ns", None)
        self.policy = FRFCFSPolicy(mc, row_buffer, write_predictor=predictor)
        # Ranks multiply the independent service units: global bank id
        # = line mod (banks x ranks), matching AddressMap's decode.
        self.num_banks = (
            config.organization.num_banks * config.organization.num_ranks
        )
        self.bank_busy = [False] * self.num_banks
        # Per-bank in-flight bookkeeping for write pausing: the request
        # being serviced, its completion event, and its finish time.
        self._inflight: list[tuple[MemRequest, object, float] | None] = (
            [None] * self.num_banks
        )
        # Per-bank paused write: (request, remaining service ns).
        self._paused: list[tuple[MemRequest, float] | None] = [None] * self.num_banks
        self.stats = ControllerStats(warmup_requests=warmup_requests)
        self.forward_latency_ns = forward_latency_ns
        self.enable_forwarding = enable_forwarding
        # Banks the next kick must visit (bit b = bank b); see the module
        # docstring for what sets a bit.
        self._wake = 0
        self._read_waiters: deque[Callable[[], None]] = deque()
        self._write_waiters: deque[Callable[[], None]] = deque()
        self._kick_scheduled = False
        # Subarray read-under-write (refs [13]/[15]): one extra read port
        # per bank, usable while a write occupies a *different* subarray.
        self.subarrays = config.organization.subarrays_per_bank
        self._read_port_busy = [False] * self.num_banks
        # Optional queue-occupancy tracing (sparkline diagnostics).
        self.occupancy_trace: "TimeSeries | None" = None
        # Observability (repro.obs): None unless config.trace.enabled,
        # so untraced runs pay one `is None` test per site.
        self._obs = tracer_for(config)

    # ------------------------------------------------------------------
    # Observability emissions (all sites guard on self._obs).
    # ------------------------------------------------------------------
    def _trace_depths(self) -> None:
        obs = self._obs
        obs.counter(
            "memctrl.read_queue", float(self.read_queue.occupancy()),
            pid="memctrl", cat="queue",
        )
        obs.counter(
            "memctrl.write_queue", float(self.write_queue.occupancy()),
            pid="memctrl", cat="queue",
        )

    def _trace_complete(self, bank: int, req: MemRequest) -> None:
        obs = self._obs
        kind = "read" if req.kind is ReqKind.READ else "write"
        obs.complete(
            f"{kind} line{req.line}",
            ts_ns=req.start_ns,
            dur_ns=max(0.0, req.finish_ns - req.start_ns),
            pid="memctrl",
            tid=f"bank{bank}",
            cat="service",
            args={
                "line": req.line,
                "wait_ns": req.queue_wait_ns,
                "latency_ns": req.latency_ns,
            },
        )
        m = obs.metrics.scope("memctrl")
        m.counter(f"{kind}s.completed").inc()
        m.latency(f"{kind}s.latency_ns").add(req.latency_ns)
        m.gauge(f"bank{bank}.busy_ns").set(
            self.stats.bank_busy_ns.get(bank, 0.0)
        )

    # ------------------------------------------------------------------
    # Submission API (called by cores).
    # ------------------------------------------------------------------
    def submit(self, req: MemRequest) -> bool:
        """Try to accept a request; False means the queue is full."""
        req.enqueue_ns = self.sim.now
        if req.kind is ReqKind.READ:
            if self.enable_forwarding and self.write_queue.contains_line(req.line):
                # Serve from the write queue: no bank access needed.
                req.forwarded = True
                self.stats.forwarded_reads += 1
                if self._obs is not None:
                    self._obs.instant(
                        "read_forwarded", pid="memctrl", tid="queue",
                        cat="queue", args={"line": req.line},
                    )
                    self._obs.metrics.counter("memctrl.forwarded_reads").inc()
                self.sim.schedule(self.forward_latency_ns, self._complete_forward, req)
                return True
            if not self.read_queue.push(req):
                self.stats.read_stalls += 1
                if self._obs is not None:
                    self._obs.instant(
                        "read_stall", pid="memctrl", tid="queue", cat="queue",
                    )
                    self._obs.metrics.counter("memctrl.read_stalls").inc()
                return False
            if self.config.memctrl.write_pausing:
                self._maybe_pause(req)
        else:
            if self.config.memctrl.write_coalescing:
                pending = next(
                    (r for r in self.write_queue.for_bank(req.bank)
                     if r.line == req.line),
                    None,
                )
                if pending is not None:
                    # Absorb: the queued entry will carry the newest data
                    # (its payload index advances); this request is done.
                    pending.write_idx = req.write_idx
                    self.stats.coalesced_writes += 1
                    req.start_ns = req.finish_ns = self.sim.now
                    self.stats.record(req)
                    if req.on_done is not None:
                        req.on_done(req)
                    return True
            if not self.write_queue.push(req):
                self.stats.write_stalls += 1
                if self._obs is not None:
                    self._obs.instant(
                        "write_stall", pid="memctrl", tid="queue", cat="queue",
                    )
                    self._obs.metrics.counter("memctrl.write_stalls").inc()
                return False
            self._sample_occupancy()
        if self._obs is not None:
            self._trace_depths()
        self._wake |= 1 << req.bank
        self._schedule_kick()
        return True

    def track_write_occupancy(self) -> TimeSeries:
        """Enable write-queue occupancy tracing; returns the series."""
        self.occupancy_trace = TimeSeries("write_queue")
        return self.occupancy_trace

    def _sample_occupancy(self) -> None:
        if self.occupancy_trace is not None:
            self.occupancy_trace.sample(
                self.sim.now, self.write_queue.occupancy()
            )

    # ------------------------------------------------------------------
    # Write pausing (refs [23-24]: serve critical reads by suspending an
    # in-flight write at sub-write-unit granularity).
    # ------------------------------------------------------------------
    def _subarray_of(self, line: int) -> int:
        return (line // self.num_banks) % self.subarrays

    def _maybe_pause(self, read: MemRequest) -> None:
        bank = read.bank
        inflight = self._inflight[bank]
        if inflight is None or self._paused[bank] is not None:
            return
        req, event, finish_ns = inflight
        if req.kind is not ReqKind.WRITE:
            return
        if self.subarrays > 1 and (
            self._subarray_of(read.line) != self._subarray_of(req.line)
        ):
            return  # the read can bypass through another subarray instead
        remaining = finish_ns - self.sim.now
        if remaining <= self.config.memctrl.pause_threshold_ns:
            return  # about to finish anyway; not worth the re-ramp
        event.cancel()
        self._inflight[bank] = None
        self.bank_busy[bank] = False
        self._paused[bank] = (
            req, remaining + self.config.memctrl.pause_overhead_ns
        )
        self.stats.write_pauses += 1
        if self._obs is not None:
            self._obs.instant(
                "write_paused", pid="memctrl", tid=f"bank{bank}",
                cat="service",
                args={"line": req.line, "remaining_ns": remaining},
            )
            self._obs.metrics.counter("memctrl.write_pauses").inc()

    def _resume_paused(self, bank: int) -> bool:
        """Restart a paused write; returns True if one was resumed."""
        paused = self._paused[bank]
        if paused is None:
            return False
        req, remaining = paused
        self._paused[bank] = None
        self._begin(bank, req, remaining)
        return True

    def stall_until_read_slot(self, callback: Callable[[], None]) -> None:
        self._read_waiters.append(callback)

    def stall_until_write_slot(self, callback: Callable[[], None]) -> None:
        self._write_waiters.append(callback)

    # ------------------------------------------------------------------
    # Scheduling engine.
    # ------------------------------------------------------------------
    def _schedule_kick(self) -> None:
        """Coalesce same-timestamp kicks into one pass."""
        if not self._kick_scheduled:
            self._kick_scheduled = True
            self.sim.schedule(0.0, self._kick)

    def _kick(self) -> None:
        self._kick_scheduled = False
        policy = self.policy
        read_queue, write_queue = self.read_queue, self.write_queue
        opportunistic = self.config.memctrl.opportunistic_drain
        pos = 0  # banks below pos have been passed in this kick
        while True:
            above = -1 << pos
            visit = self._wake & above
            # A pending drain transition is observed at the first idle,
            # unpaused bank at or after pos (see the module docstring).
            observe = policy.next_drain_state(write_queue) != policy.draining
            if observe:
                free = self._first_free(pos)
                if free is not None:
                    visit |= 1 << free
            if not visit:
                return
            bit = visit & -visit
            bank = bit.bit_length() - 1
            pos = bank + 1
            woken = self._wake & bit
            self._wake &= ~bit
            if self.bank_busy[bank]:
                if woken and self.subarrays > 1:
                    self._try_read_under_write(bank)
                continue
            if self._paused[bank] is not None:
                # A paused write owns the bank: pending reads cut in line,
                # anything else waits for the resume.
                read = read_queue.oldest_for_bank(bank)
                if read is not None:
                    self._start_service(bank, read)
                else:
                    self._resume_paused(bank)
                continue
            # An idle, unpaused bank visited with `observe` set is the
            # observation point (any lower one would have come first),
            # and the observation flips the drain state.
            draining = policy.draining
            if observe:
                draining = not draining
                if draining:
                    self._wake_writes()
                    woken |= self._wake & bit
                    self._wake &= ~bit
            if woken and (
                read_queue.has_bank(bank)
                or (
                    (draining or opportunistic)
                    and write_queue.has_bank(bank)
                )
            ):
                self._start_service(
                    bank, policy.select(bank, read_queue, write_queue)
                )
            elif observe:
                policy.update_drain_state(write_queue)

    def _first_free(self, pos: int) -> int | None:
        """Lowest idle, unpaused bank at or after ``pos``."""
        for bank in range(pos, self.num_banks):
            if not self.bank_busy[bank] and self._paused[bank] is None:
                return bank
        return None

    def _wake_writes(self) -> None:
        """Wake every bank with a pending write (drain mode turned on)."""
        for bank in range(self.num_banks):
            if self.write_queue.has_bank(bank):
                self._wake |= 1 << bank

    def _start_service(self, bank: int, req: MemRequest) -> None:
        queue = self.read_queue if req.kind is ReqKind.READ else self.write_queue
        queue.remove(req)
        if req.kind is ReqKind.WRITE:
            self._sample_occupancy()
        if self._obs is not None:
            self._trace_depths()
        self._notify_waiters(req.kind)
        req.start_ns = self.sim.now
        if req.kind is ReqKind.READ:
            if self.policy.row_buffer is not None:
                service_ns = self.policy.row_buffer.access(bank, req.line)
            else:
                service_ns = self.service.read_ns(req)
        else:
            service_ns = self.service.write_ns(req)
        if service_ns < 0:
            raise ValueError(f"negative service time for {req}")
        self._begin(bank, req, service_ns)

    def _begin(self, bank: int, req: MemRequest, service_ns: float) -> None:
        """Occupy ``bank`` with ``req`` for ``service_ns``."""
        self.bank_busy[bank] = True
        self.stats.bank_busy_ns[bank] = (
            self.stats.bank_busy_ns.get(bank, 0.0) + service_ns
        )
        event = self.sim.schedule(service_ns, self._complete, bank, req)
        self._inflight[bank] = (req, event, self.sim.now + service_ns)
        if self.subarrays > 1 and req.kind is ReqKind.WRITE:
            self._wake |= 1 << bank

    def _try_read_under_write(self, bank: int) -> None:
        """Serve a read through a free subarray while a write occupies
        the bank (the refs [13]/[15] intra-bank parallelism)."""
        if self._read_port_busy[bank]:
            return
        inflight = self._inflight[bank]
        if inflight is None or inflight[0].kind is not ReqKind.WRITE:
            return
        write_sub = self._subarray_of(inflight[0].line)
        read = next(
            (r for r in self.read_queue.for_bank(bank)
             if self._subarray_of(r.line) != write_sub),
            None,
        )
        if read is None:
            return
        self.read_queue.remove(read)
        self._notify_waiters(ReqKind.READ)
        read.start_ns = self.sim.now
        service_ns = self.service.read_ns(read)
        self._read_port_busy[bank] = True
        self.stats.subarray_reads += 1
        self.sim.schedule(service_ns, self._complete_read_port, bank, read)

    def _complete_read_port(self, bank: int, req: MemRequest) -> None:
        self._read_port_busy[bank] = False
        req.finish_ns = self.sim.now
        self.stats.record(req)
        if req.on_done is not None:
            req.on_done(req)
        self._wake |= 1 << bank
        self._schedule_kick()

    def _notify_waiters(self, kind: ReqKind) -> None:
        waiters = self._read_waiters if kind is ReqKind.READ else self._write_waiters
        if waiters:
            waiters.popleft()()

    # ------------------------------------------------------------------
    # Completion.
    # ------------------------------------------------------------------
    def _complete(self, bank: int, req: MemRequest) -> None:
        self.bank_busy[bank] = False
        self._inflight[bank] = None
        req.finish_ns = self.sim.now
        self.stats.record(req)
        if self._obs is not None:
            self._trace_complete(bank, req)
        if req.on_done is not None:
            req.on_done(req)
        self._wake |= 1 << bank
        self._schedule_kick()

    def _complete_forward(self, req: MemRequest) -> None:
        req.start_ns = req.enqueue_ns
        req.finish_ns = self.sim.now
        self.stats.record(req)
        if req.on_done is not None:
            req.on_done(req)

    def flush_writes(self) -> None:
        """Drain the write queue unconditionally (end-of-run)."""
        self.policy.force_drain = True
        self._schedule_kick()

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no requests are queued, in flight, or paused."""
        return (
            self.read_queue.empty
            and self.write_queue.empty
            and not any(self.bank_busy)
            and not any(self._read_port_busy)
            and not any(p is not None for p in self._paused)
        )
