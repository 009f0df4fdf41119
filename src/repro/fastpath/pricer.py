"""Analytic cell pricer: full sweep rows without running the DES.

Two halves, mirroring the two halves of a DES cell
(:func:`repro.parallel.engine._execute_cell`):

* :func:`price_write_service` — the per-write service table from
  :func:`repro.core.pricing.price_writes`, the one pricer the DES lane's
  ``precompute_write_service`` also calls.
* :func:`model_cell` — a two-regime analytic model of the restricted
  controller semantics that replaces the event-driven simulation:

  - **Free-run regime.**  While the write queue is below the drain
    watermark, no request ever waits: reads cost ``t_read``, writes cost
    the issuing core nothing (posted to the write queue).  Each core's
    timeline is a single ``cumsum`` over its records plus a scalar delay
    offset ``D`` accumulated at regime boundaries; write arrivals are
    merged across cores in time order by a small pick loop.
  - **Drain-window regime.**  When occupancy reaches the high watermark
    the controller turns demand-blind, and queueing effects dominate.
    The model switches to an *exact* event simulation of the window
    (write completions, starved-read chains, core resumes) until the
    system is quiescent: drain flag off, no writes in flight, no queued
    reads, no stalled cores.  Windows are rare (a few per thousand
    writes) and short, so the exact replay costs little.

  Validated against the DES on the full Fig 11-14 grid (8 workloads x 6
  schemes, 4000 requests/core): mean absolute error 0.4-1.4% per metric,
  max 5.6% (read latency on saturated cells); see docs/PERFORMANCE.md.

Import discipline (simlint SL016): this package must not import
``repro.sim``, ``repro.pcm`` or ``repro.schemes`` — the queueing model
has to stay falsifiable against the production simulator, which it
cannot be if it computes answers *with* the production simulator.  The
write prices are a shared input both lanes must agree on bit for bit,
so they come from ``repro.core``; ``tests/test_pricing.py`` checks them
against the oracle's independent closed forms.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.config import SystemConfig
from repro.core.pricing import PRICING, WriteServiceTable, price_writes
from repro.trace.record import OP_WRITE, Trace

__all__ = [
    "PRICED_SCHEMES",
    "model_cell",
    "price_cell",
    "price_write_service",
]

#: Schemes the analytic lane prices; any other name routes the cell to
#: the DES with the ``unpriced-scheme`` envelope reason.  ``palp`` has a
#: pricing rule but no measured agreement band, so it stays on the DES.
PRICED_SCHEMES = frozenset(PRICING) - {"palp"}

#: Mirror of ``MemoryController.forward_latency_ns`` (constructor
#: default; the sweep path never overrides it).
FWD_LATENCY_NS = 1.0


def price_write_service(
    trace: Trace, scheme: str, config: SystemConfig
) -> WriteServiceTable:
    """The analytic lane's per-write prices: :func:`price_writes`.

    A module-level name of its own, so the lane's pricing calls stay
    distinguishable from the DES lane's ``precompute_write_service``.
    """
    return price_writes(trace, scheme, config)


# ----------------------------------------------------------------------
# The two-regime system model.
# ----------------------------------------------------------------------
EV_DONE = 0  # write service completion on a bank
EV_RCHAIN = 1  # starved-read service completion on a bank
EV_REC = 2  # resume a core's record stream


class _Core:
    """One core's free-run schedule as plain Python lists.

    ``issue``/``finish`` are the record's free-run times; the live time
    of record ``k`` is ``issue[k] + D`` where ``D`` is the core's
    accumulated delay.  Lists (not arrays) because the window replay
    touches single elements on its hot path.
    """

    __slots__ = (
        "issue",
        "finish",
        "is_rd",
        "line",
        "bank",
        "widx",
        "n",
        "D",
        "k",
        "instr",
        "blocked",
    )

    def __init__(self, r, widx_all, cycle, t_read, num_banks):
        gap_ns = r["gap"].astype(np.float64) * cycle
        is_rd = r["op"] != OP_WRITE
        cost = gap_ns + np.where(is_rd, t_read, 0.0)
        finish = np.cumsum(cost)
        issue = finish - np.where(is_rd, t_read, 0.0)
        line = r["line"].astype(np.int64)
        self.issue = issue.tolist()
        self.finish = finish.tolist()
        self.is_rd = is_rd.tolist()
        self.line = line.tolist()
        self.bank = (line % num_banks).tolist()
        self.widx = widx_all.tolist()
        self.n = len(r)
        self.D = 0.0
        self.k = 0
        self.instr = int(r["gap"].sum(dtype=np.int64))
        self.blocked = False


def model_cell(
    trace: Trace, service_ns, config: SystemConfig
) -> tuple[float, float, float, float, int]:
    """Analytic system metrics for one cell.

    Returns ``(read_latency_ns, write_latency_ns, ipc, runtime_ns,
    forwarded_reads)`` — the DES outputs the sweep rows are built from.
    ``service_ns`` is the per-write service array (a
    :func:`price_write_service` table's ``service_ns``).
    """
    t_read = config.timings.t_read_ns
    fwd_ns = FWD_LATENCY_NS
    cycle = config.cpu.cycle_ns * config.cpu.base_cpi
    num_banks = config.organization.num_banks * config.organization.num_ranks
    hi = config.memctrl.drain_high_watermark
    lo = config.memctrl.drain_low_watermark
    wq_cap = config.memctrl.write_queue_entries

    recs = trace.records
    is_write_all = recs["op"] == OP_WRITE
    write_ord_all = np.where(is_write_all, np.cumsum(is_write_all) - 1, -1)

    cores = [
        _Core(
            recs[recs["core"] == c],
            write_ord_all[recs["core"] == c].astype(np.int64),
            cycle,
            t_read,
            num_banks,
        )
        for c in range(config.cpu.num_cores)
    ]

    svc = np.asarray(service_ns, dtype=np.float64).tolist()
    n_writes = trace.n_writes
    write_lat = [0.0] * n_writes
    read_extra = 0.0
    n_fwd = 0

    qb = [deque() for _ in range(num_banks)]  # per-bank pending writes
    occ = 0  # global write-queue occupancy
    pend_lines = {}  # line -> pending-write count (read forwarding)

    # ------------------------------------------------------------------
    def window_sim(t0):
        """Exact replay of one drain window starting at time ``t0``."""
        nonlocal read_extra, n_fwd, occ
        draining = True
        bank_busy = [0] * num_banks  # 0 idle, 1 write, 2 read
        writes_in_flight = 0
        rq = [deque() for _ in range(num_banks)]  # starved reads
        n_rq = 0
        stalled = deque()  # cores frozen on a full write queue
        n_blocked = 0
        seq = 0
        evq = []
        push_ev = heapq.heappush

        def start_write(b, now):
            nonlocal occ, draining, writes_in_flight, seq, n_blocked
            arr, wi, ln = qb[b].popleft()
            occ -= 1
            if occ <= lo:
                draining = False
            cnt = pend_lines[ln] - 1
            if cnt:
                pend_lines[ln] = cnt
            else:
                del pend_lines[ln]
            done = now + svc[wi]
            write_lat[wi] = done - arr
            bank_busy[b] = 1
            writes_in_flight += 1
            seq += 1
            push_ev(evq, (done, seq, EV_DONE, b))
            if stalled:
                core = stalled.popleft()
                core.blocked = False
                n_blocked -= 1
                # The core was frozen at its write record; it resubmits
                # now, so its delay grows by the time spent stalled.
                core.D = now - core.issue[core.k]
                seq += 1
                push_ev(evq, (now, seq, EV_REC, core))

        def start_read_chain(b, now):
            nonlocal n_rq, read_extra, seq
            arr, core = rq[b].popleft()
            n_rq -= 1
            done = now + t_read
            read_extra += done - t_read - arr
            bank_busy[b] = 2
            seq += 1
            push_ev(evq, (done, seq, EV_RCHAIN, (b, core)))

        def run_core(c, now):
            """Advance one core inline until it interacts with the window
            state (starved read, queue-full stall) or falls behind the
            event queue head."""
            nonlocal occ, draining, read_extra, n_fwd, n_blocked, n_rq, seq
            k = c.k
            n = c.n
            D = c.D
            issue = c.issue
            finish = c.finish
            is_rd = c.is_rd
            line = c.line
            bank = c.bank
            widx = c.widx
            while k < n:
                t = issue[k] + D
                if evq and t > evq[0][0]:
                    break
                if is_rd[k]:
                    ln = line[k]
                    if ln in pend_lines:
                        n_fwd += 1
                        read_extra += fwd_ns - t_read
                        D = (t + fwd_ns) - finish[k]
                        k += 1
                        continue
                    b = bank[k]
                    if bank_busy[b] or (draining and qb[b]):
                        rq[b].append((t, c))
                        n_rq += 1
                        c.blocked = True
                        n_blocked += 1
                        c.k = k
                        c.D = D
                        return
                    k += 1
                    continue
                # Write record.
                if occ >= wq_cap:
                    stalled.append(c)
                    c.blocked = True
                    n_blocked += 1
                    c.k = k
                    c.D = D
                    return
                wi = widx[k]
                b = bank[k]
                ln = line[k]
                qb[b].append((t, wi, ln))
                occ += 1
                pend_lines[ln] = pend_lines.get(ln, 0) + 1
                D = t - finish[k]
                k += 1
                if draining:
                    if not bank_busy[b]:
                        start_write(b, t)
                elif occ >= hi:
                    draining = True
                    for bb in range(num_banks):
                        if not bank_busy[bb] and qb[bb]:
                            start_write(bb, t)
                            if not draining:
                                break
            c.k = k
            c.D = D
            if k < n:
                seq += 1
                push_ev(evq, (issue[k] + D, seq, EV_REC, c))

        # Seed: retire stale free-run records, kick idle banks, resume
        # cores.  Macro invariant: every unprocessed record with live
        # time <= t0 is a read (writes are merged in global time order),
        # and those reads already completed in the free-run regime —
        # only their forwarding hits need accounting.
        for c in cores:
            if c.blocked or c.k >= c.n:
                continue
            k = c.k
            D = c.D
            nh = 0
            line = c.line
            is_rd = c.is_rd
            issue = c.issue
            n = c.n
            while k < n and is_rd[k] and issue[k] + D <= t0:
                if line[k] in pend_lines:
                    nh += 1
                k += 1
            if nh:
                n_fwd += nh
                read_extra += nh * (fwd_ns - t_read)
                D -= nh * (t_read - fwd_ns)
            c.k = k
            c.D = D
        for b in range(num_banks):
            if draining and qb[b] and not bank_busy[b]:
                start_write(b, t0)
            if not draining:
                break
        for c in cores:
            if c.k < c.n and not c.blocked:
                seq += 1
                push_ev(evq, (c.issue[c.k] + c.D, seq, EV_REC, c))

        while evq:
            t, _, kind, payload = heapq.heappop(evq)
            if kind == EV_REC:
                c = payload
                if not c.blocked and c.k < c.n:
                    run_core(c, t)
                continue
            if kind == EV_DONE:
                b = payload
                writes_in_flight -= 1
            else:  # EV_RCHAIN
                b, core = payload
                core.blocked = False
                n_blocked -= 1
                core.D = t - core.finish[core.k]
                core.k += 1
            bank_busy[b] = 0
            if draining and qb[b]:
                start_write(b, t)
            elif rq[b]:
                start_read_chain(b, t)
            if kind == EV_RCHAIN:
                run_core(core, t)
            if (
                not draining
                and writes_in_flight == 0
                and n_rq == 0
                and not stalled
                and n_blocked == 0
            ):
                return

    # ------------------------------------------------------------------
    # Macro loop: free-run between windows; writes accumulate unserved.
    while True:
        best_t = None
        best_c = None
        best_k = -1
        for c in cores:
            k = c.k
            is_rd = c.is_rd
            n = c.n
            while k < n and is_rd[k]:
                k += 1
            if k < n:
                t = c.issue[k] + c.D
                if best_t is None or t < best_t:
                    best_t, best_c, best_k = t, c, k
        if best_c is None:
            break
        c, k = best_c, best_k
        if pend_lines and k > c.k:
            # Reads skipped over on the way to this write may hit a
            # pending line: they complete by forwarding, not the array.
            nh = 0
            line = c.line
            for j in range(c.k, k):
                if line[j] in pend_lines:
                    nh += 1
            if nh:
                n_fwd += nh
                read_extra += nh * (fwd_ns - t_read)
                c.D -= nh * (t_read - fwd_ns)
                best_t = c.issue[k] + c.D
        wi = c.widx[k]
        b = c.bank[k]
        ln = c.line[k]
        qb[b].append((best_t, wi, ln))
        occ += 1
        pend_lines[ln] = pend_lines.get(ln, 0) + 1
        c.k = k + 1
        if occ >= hi:
            window_sim(best_t)

    finishes = [(c.finish[c.n - 1] + c.D) if c.n else 0.0 for c in cores]
    runtime = max(finishes) if finishes else 0.0
    if occ:
        # Writes still queued when the last record retires are flushed
        # per bank from the end of the run (the DES's final drain).
        for b in range(num_banks):
            free = runtime
            for arr, wi, ln in qb[b]:
                free += svc[wi]
                write_lat[wi] = free - arr

    n_reads = trace.n_reads
    read_lat = t_read + (read_extra / n_reads if n_reads else 0.0)
    w_lat = (sum(write_lat) / n_writes) if n_writes else 0.0
    total_instr = sum(c.instr for c in cores)
    ipc = total_instr / (runtime / config.cpu.cycle_ns) if runtime > 0 else 0.0
    return read_lat, w_lat, ipc, runtime, n_fwd


# ----------------------------------------------------------------------
# Full rows.
# ----------------------------------------------------------------------
def price_cell(
    trace: Trace, workload: str, scheme: str, config: SystemConfig
) -> dict:
    """One sweep row as a field dict (``ExperimentResult(**fields)``).

    Field coercion matches ``_execute_cell``: builtin ``float``/``int``
    so a fresh row is byte-identical after a JSON cache round-trip.
    ``events`` is 0 — the analytic lane processes no DES events — which
    also marks the row's lane in cached artifacts.
    """
    table = price_write_service(trace, scheme, config)
    read_lat, w_lat, ipc, runtime, n_fwd = model_cell(
        trace, table.service_ns, config
    )
    return {
        "workload": workload,
        "scheme": scheme,
        "read_latency_ns": float(read_lat),
        "write_latency_ns": float(w_lat),
        "ipc": float(ipc),
        "runtime_ns": float(runtime),
        "mean_write_units": table.mean_units(),
        "mean_write_energy": (
            float(table.energy.mean()) if table.energy.size else 0.0
        ),
        "forwarded_reads": int(n_fwd),
        "events": 0,
    }
