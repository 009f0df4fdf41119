"""Bounded request queues with per-bank selection.

The controller keeps one :class:`BoundedQueue` per direction.  Selection
helpers return the *oldest* entry matching a predicate — the FCFS leg of
FR-FCFS — without removing it, so the policy can inspect candidates for
several banks before committing.

Next to the global FIFO the queue keeps one FIFO per bank, so the
per-bank questions the scheduler asks on every decision (is anything
queued for this bank, which is its oldest entry) cost O(1) instead of a
walk over every queued request.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Sequence

from repro.memctrl.request import MemRequest

__all__ = ["BoundedQueue"]

_NO_REQUESTS: tuple[MemRequest, ...] = ()


class BoundedQueue:
    """FIFO with a hard capacity (models the 32-entry R/W queues)."""

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: deque[MemRequest] = deque()
        # Per-bank FIFOs in arrival order; a bank's entry is dropped when
        # its last request leaves, so membership means "has requests".
        self._by_bank: dict[int, deque[MemRequest]] = {}
        # Lines with a pending write, for read forwarding (multiset:
        # the same line can be enqueued twice).
        self._line_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[MemRequest]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def occupancy(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    def push(self, req: MemRequest) -> bool:
        """Append if space is available; returns False when full."""
        if self.full:
            return False
        self._items.append(req)
        bank_fifo = self._by_bank.get(req.bank)
        if bank_fifo is None:
            self._by_bank[req.bank] = deque((req,))
        else:
            bank_fifo.append(req)
        self._line_counts[req.line] = self._line_counts.get(req.line, 0) + 1
        return True

    def has_bank(self, bank: int) -> bool:
        """Is any request queued for ``bank``?"""
        return bank in self._by_bank

    def for_bank(self, bank: int) -> Sequence[MemRequest]:
        """The requests queued for ``bank``, oldest first (do not mutate)."""
        return self._by_bank.get(bank, _NO_REQUESTS)

    def oldest_for_bank(self, bank: int) -> MemRequest | None:
        bank_fifo = self._by_bank.get(bank)
        return bank_fifo[0] if bank_fifo is not None else None

    def oldest_where(
        self, pred: Callable[[MemRequest], bool]
    ) -> MemRequest | None:
        for req in self._items:
            if pred(req):
                return req
        return None

    def remove(self, req: MemRequest) -> None:
        self._items.remove(req)
        bank_fifo = self._by_bank[req.bank]
        bank_fifo.remove(req)
        if not bank_fifo:
            del self._by_bank[req.bank]
        count = self._line_counts[req.line] - 1
        if count:
            self._line_counts[req.line] = count
        else:
            del self._line_counts[req.line]

    def contains_line(self, line: int) -> bool:
        """Is a request for this line pending? (read-forwarding check)"""
        return line in self._line_counts
