"""Trace-driven timing core.

State machine per request record::

    EXECUTING --(gap * CPI cycles)--> ISSUE
    ISSUE(read):  submit; queue full -> STALL until slot; else BLOCK
                  until the controller's completion callback
    ISSUE(write): submit; queue full -> STALL until slot; else continue
    last record done -> FINISHED (records finish_ns)

Stall time is accounted separately for read-block and queue-backpressure
so the experiments can attribute slowdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import CPUConfig
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, ReqKind
from repro.sim.engine import Simulator
from repro.trace.record import OP_WRITE

__all__ = ["CoreStats", "TraceCore"]


@dataclass
class CoreStats:
    """Per-core accounting for IPC / running-time metrics."""

    instructions: int = 0
    reads: int = 0
    writes: int = 0
    read_block_ns: float = 0.0
    read_slot_stall_ns: float = 0.0
    write_slot_stall_ns: float = 0.0
    finish_ns: float = -1.0

    def ipc(self, cycle_ns: float) -> float:
        """Committed IPC over the core's own completion time."""
        if self.finish_ns <= 0:
            return 0.0
        cycles = self.finish_ns / cycle_ns
        return self.instructions / cycles if cycles else 0.0


class TraceCore:
    """Replays one core's slice of a memory trace."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        records: np.ndarray,
        write_indices: np.ndarray,
        controller: MemoryController,
        cpu: CPUConfig,
        on_finish: Callable[["TraceCore"], None] | None = None,
    ) -> None:
        """``records`` is this core's sub-array of the trace;
        ``write_indices[i]`` is the *global* write ordinal of record ``i``
        (-1 for reads) — the key into precomputed service/count tables."""
        if len(records) != len(write_indices):
            raise ValueError("records and write_indices must align")
        self.sim = sim
        self.core_id = core_id
        # Plain-list columns: the event loop reads one field per event,
        # and indexing a list is far cheaper than a structured record.
        self._gaps: list[int] = records["gap"].tolist()
        # Per-record execution delay before the issue, in the same
        # operation order as computing it at the event.
        self._delays: list[float] = [
            gap * cpu.base_cpi * cpu.cycle_ns for gap in self._gaps
        ]
        self._is_write: list[bool] = (records["op"] == OP_WRITE).tolist()
        self._lines: list[int] = records["line"].tolist()
        self._banks: list[int] = (records["line"] % controller.num_banks).tolist()
        self._write_idx: list[int] = write_indices.tolist()
        self.controller = controller
        self.cpu = cpu
        self.on_finish = on_finish
        self.stats = CoreStats()
        self._pc = 0          # index of the next record
        self._req_seq = 0
        self._stall_started = -1.0
        # Memory-level parallelism state: reads in flight, and whether
        # the front end is blocked at the outstanding-read limit.
        self._outstanding = 0
        self._limit_block_start = -1.0
        self._all_issued = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first gap; no-op for an empty trace slice."""
        if not self._gaps:
            self._finish()
            return
        self._execute_gap()

    @property
    def finished(self) -> bool:
        return self.stats.finish_ns >= 0

    # ------------------------------------------------------------------
    def _execute_gap(self) -> None:
        self.sim.schedule(self._delays[self._pc], self._issue)

    def _issue(self) -> None:
        pc = self._pc
        self.stats.instructions += self._gaps[pc]
        kind = ReqKind.WRITE if self._is_write[pc] else ReqKind.READ
        self._req_seq += 1
        req = MemRequest(
            req_id=(self.core_id << 32) | self._req_seq,
            kind=kind,
            core=self.core_id,
            line=self._lines[pc],
            bank=self._banks[pc],
            write_idx=self._write_idx[pc],
        )
        if kind is ReqKind.READ:
            req.on_done = self._read_done
            if self.controller.submit(req):
                self._read_accepted()
            else:
                self._stall_started = self.sim.now
                self.controller.stall_until_read_slot(lambda: self._retry(req))
        else:
            if self.controller.submit(req):
                self.stats.writes += 1
                self._advance()
            else:
                self._stall_started = self.sim.now
                self.controller.stall_until_write_slot(lambda: self._retry(req))

    def _read_accepted(self) -> None:
        """A read entered the memory system; keep executing if the MLP
        window has room, otherwise block until a completion frees it."""
        self._outstanding += 1
        if self._outstanding < self.cpu.max_outstanding_reads:
            self._advance()
        else:
            self._limit_block_start = self.sim.now

    def _retry(self, req: MemRequest) -> None:
        """A queue slot freed; account the stall and resubmit."""
        stalled = self.sim.now - self._stall_started
        if req.kind is ReqKind.READ:
            self.stats.read_slot_stall_ns += stalled
        else:
            self.stats.write_slot_stall_ns += stalled
        self._stall_started = -1.0
        if not self.controller.submit(req):
            # Raced with another waiter; queue again.
            self._stall_started = self.sim.now
            if req.kind is ReqKind.READ:
                self.controller.stall_until_read_slot(lambda: self._retry(req))
            else:
                self.controller.stall_until_write_slot(lambda: self._retry(req))
            return
        if req.kind is ReqKind.WRITE:
            self.stats.writes += 1
            self._advance()
        else:
            self._read_accepted()

    def _read_done(self, req: MemRequest) -> None:
        self.stats.reads += 1
        self._outstanding -= 1
        if self._limit_block_start >= 0:
            self.stats.read_block_ns += self.sim.now - self._limit_block_start
            self._limit_block_start = -1.0
            self._advance()
        elif self._all_issued and self._outstanding == 0:
            self._finish()

    def _advance(self) -> None:
        self._pc += 1
        if self._pc >= len(self._gaps):
            self._all_issued = True
            if self._outstanding == 0:
                self._finish()
            return
        self._execute_gap()

    def _finish(self) -> None:
        self.stats.finish_ns = self.sim.now
        # Fire once and drop the callback: it usually points back at the
        # owner of this core, and breaking that cycle lets a finished run
        # (with its per-core trace columns) be freed by reference counting.
        on_finish, self.on_finish = self.on_finish, None
        if on_finish:
            on_finish(self)
