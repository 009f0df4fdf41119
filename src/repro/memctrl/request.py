"""Memory request record shared by the controller, cores and stats."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["ReqKind", "MemRequest"]


class ReqKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(eq=False, slots=True)
class MemRequest:
    """One post-LLC request flowing through the controller.

    Equality is identity: every request is a distinct object, and queue
    removal must not compare field tuples.

    ``write_idx`` indexes the trace's write-payload/count tables (and the
    precomputed service-time array); -1 for reads.  Timestamps are filled
    in as the request progresses; ``on_done`` fires at completion (used
    by cores to unblock on reads).
    """

    req_id: int
    kind: ReqKind
    core: int
    line: int
    bank: int
    write_idx: int = -1
    enqueue_ns: float = -1.0
    start_ns: float = -1.0
    finish_ns: float = -1.0
    forwarded: bool = False
    on_done: Callable[["MemRequest"], Any] | None = field(default=None, repr=False)

    @property
    def queue_wait_ns(self) -> float:
        """Time spent waiting in the queue before bank service began."""
        if self.start_ns < 0 or self.enqueue_ns < 0:
            return 0.0
        return self.start_ns - self.enqueue_ns

    @property
    def latency_ns(self) -> float:
        """Total request latency (enqueue to completion)."""
        if self.finish_ns < 0 or self.enqueue_ns < 0:
            return 0.0
        return self.finish_ns - self.enqueue_ns
