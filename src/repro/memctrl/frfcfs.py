"""FR-FCFS selection policy and the optional row-buffer model.

FR-FCFS ("first-ready, first-come-first-served") prefers requests that
are *ready* — targeting an idle bank, and with a row buffer, an open row
— breaking ties by age.  The paper's variant adds the classic write-drain
twist: reads have priority, and writes are serviced in batches when the
write queue fills ("services the write requests only when the write
queue is full").

The paper's PCM timing is flat (50 ns reads, Table II), so the default
policy has no row buffer and first-ready reduces to bank-idleness; the
:class:`RowBufferModel` is provided for the row-locality ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import MemCtrlConfig
from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind

__all__ = ["FRFCFSPolicy", "RowBufferModel"]


@dataclass
class RowBufferModel:
    """Optional per-bank open-row tracking.

    ``hit_ns`` / ``miss_ns`` replace the flat read latency when enabled.
    The paper's configuration does not model one (reads are flat 50 ns);
    this exists for the sensitivity bench.
    """

    lines_per_row: int = 32
    hit_ns: float = 30.0
    miss_ns: float = 60.0
    open_rows: dict[int, int] = field(default_factory=dict)

    def row_of(self, line: int) -> int:
        return line // self.lines_per_row

    def is_hit(self, bank: int, line: int) -> bool:
        return self.open_rows.get(bank) == self.row_of(line)

    def access(self, bank: int, line: int) -> float:
        hit = self.is_hit(bank, line)
        self.open_rows[bank] = self.row_of(line)
        return self.hit_ns if hit else self.miss_ns


class FRFCFSPolicy:
    """Chooses the next request for an idle bank.

    Drain-mode state machine: enter when write occupancy reaches the high
    watermark, leave when it falls to the low watermark.  While draining,
    writes win; otherwise reads win and writes go out only opportunistically
    (when the bank has no read waiting and opportunistic drain is on).
    """

    def __init__(
        self,
        config: MemCtrlConfig,
        row_buffer: RowBufferModel | None = None,
        write_predictor=None,
    ) -> None:
        """``write_predictor(req) -> ns`` enables the "sjf" drain order:
        among a bank's pending writes the shortest predicted service goes
        first.  Tetris makes the prediction exact (the analysis stage has
        already run); without a predictor the order falls back to FIFO."""
        self.config = config
        self.row_buffer = row_buffer
        self.write_predictor = write_predictor
        self.draining = False
        self.drain_entries = 0  # times drain mode was entered (stats)
        # End-of-run flush: once set, writes drain unconditionally (the
        # cores have finished; nothing is left to prioritize).
        self.force_drain = False

    # ------------------------------------------------------------------
    def next_drain_state(self, write_queue: BoundedQueue) -> bool:
        """Drain state the next observation would leave; changes nothing.

        Under the watermark hysteresis (low < high) this differs from
        ``draining`` only after the write occupancy crossed a watermark or
        ``force_drain`` was set, which is when an observation matters.
        """
        if self.force_drain:
            return True
        occ = len(write_queue)
        if self.draining:
            return occ > self.config.drain_low_watermark
        return occ >= self.config.drain_high_watermark

    def update_drain_state(self, write_queue: BoundedQueue) -> None:
        draining = self.next_drain_state(write_queue)
        if draining and not self.draining and not self.force_drain:
            self.drain_entries += 1
        self.draining = draining

    def _first_ready(self, queue: BoundedQueue, bank: int) -> MemRequest | None:
        """Row-hit-first within the bank when a row buffer exists,
        otherwise plain oldest-for-bank (flat-timing degeneration)."""
        if self.row_buffer is not None:
            for req in queue.for_bank(bank):
                if self.row_buffer.is_hit(bank, req.line):
                    return req
        return queue.oldest_for_bank(bank)

    def _next_write(self, write_queue: BoundedQueue, bank: int) -> MemRequest | None:
        if (
            self.config.drain_order == "sjf"
            and self.write_predictor is not None
        ):
            best: MemRequest | None = None
            best_ns = 0.0
            for req in write_queue.for_bank(bank):
                ns = self.write_predictor(req)
                if best is None or ns < best_ns:
                    best, best_ns = req, ns
            return best
        return self._first_ready(write_queue, bank)

    def select(
        self,
        bank: int,
        read_queue: BoundedQueue,
        write_queue: BoundedQueue,
    ) -> MemRequest | None:
        """Pick the next request for an idle bank (or None).

        Candidate lookups are lazy: the losing queue is only consulted
        when the winning queue has no candidate for the bank.  The result
        is None exactly when the bank has no read queued and its writes
        (if any) are ineligible: not draining and no opportunistic drain.
        """
        self.update_drain_state(write_queue)
        if self.draining:
            write = self._next_write(write_queue, bank)
            if write is not None:
                return write
            return self._first_ready(read_queue, bank)
        read = self._first_ready(read_queue, bank)
        if read is not None:
            return read
        if self.config.opportunistic_drain:
            return self._next_write(write_queue, bank)
        return None
