"""Disk I/O requests as seen by the disk schedulers."""

from __future__ import annotations

import itertools
import math
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

#: Deadline used for requests with no timing constraint (pure background
#: prefetches under the non-real-time prefetcher).
NO_DEADLINE = math.inf

_sequence = itertools.count()


class DiskRequest:
    """One read of a stripe block from a specific disk.

    ``deadline`` is the absolute simulated time by which the read must
    complete to avoid a glitch at the requesting terminal.  It may be
    tightened after enqueue (e.g. when a real reference merges with an
    in-flight prefetch); schedulers therefore evaluate deadlines at pop
    time rather than caching priority at push time.
    """

    __slots__ = (
        "env",
        "byte_offset",
        "size",
        "cylinder",
        "deadline",
        "is_prefetch",
        "terminal_id",
        "enqueued_at",
        "seq",
        "done",
        "started_at",
        "completed_at",
        "cancelled",
        "failed",
    )

    def __init__(
        self,
        env: "Environment",
        byte_offset: int,
        size: int,
        cylinder: int,
        deadline: float = NO_DEADLINE,
        is_prefetch: bool = False,
        terminal_id: int = -1,
    ) -> None:
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        self.env = env
        self.byte_offset = byte_offset
        self.size = size
        self.cylinder = cylinder
        self.deadline = deadline
        self.is_prefetch = is_prefetch
        self.terminal_id = terminal_id
        self.enqueued_at = env.now
        self.seq = next(_sequence)
        #: Fires, with no value, when the read completes: waiters hold the
        #: request, and a value pointing back would make a cycle.
        self.done = Event(env)
        self.started_at: float | None = None
        self.completed_at: float | None = None
        #: Set when the submitter gave up (degraded-mode timeout); the
        #: drive discards the request instead of servicing it.
        self.cancelled = False
        #: Set when the read completed unsuccessfully (drive failed).
        self.failed = False

    @property
    def slack(self) -> float:
        """Seconds remaining until the deadline (may be negative)."""
        return self.deadline - self.env.now

    def tighten_deadline(self, deadline: float) -> None:
        """Move the deadline earlier (never later)."""
        if deadline < self.deadline:
            self.deadline = deadline

    def complete(self) -> None:
        self.completed_at = self.env.now
        self.done.succeed()

    def cancel(self) -> None:
        """Tell the drive the submitter no longer wants this read."""
        self.cancelled = True

    def fail_read(self) -> None:
        """Complete the request unsuccessfully (permanent drive failure)."""
        self.failed = True
        self.complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "prefetch" if self.is_prefetch else "read"
        return (
            f"<DiskRequest {kind} cyl={self.cylinder} "
            f"deadline={self.deadline:.3f} term={self.terminal_id}>"
        )
