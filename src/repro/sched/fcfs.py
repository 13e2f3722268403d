"""First-come-first-served disk scheduling (analysis baseline)."""

from __future__ import annotations

import heapq
import typing

from repro.sched.base import DiskScheduler
from repro.storage.request import DiskRequest


class FcfsScheduler(DiskScheduler):
    """Serves the oldest request (smallest ``seq``) first, from a heap of
    ``(seq, request)``: requests may be pushed out of ``seq`` order."""

    name = "fcfs"

    @property
    def pending(self) -> typing.Sequence[DiskRequest]:
        return tuple(request for _, request in self._pending)

    def push(self, request: DiskRequest) -> None:
        heapq.heappush(self._pending, (request.seq, request))

    def pop(self, now: float, head_cylinder: int) -> DiskRequest:
        return heapq.heappop(self._pending)[1]
