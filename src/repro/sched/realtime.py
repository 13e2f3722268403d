"""The SPIFFI real-time disk scheduling algorithm (paper §5.2.2).

Each pending request's deadline is mapped into one of a fixed set of
priority classes using uniformly spaced priority cutoffs: with spacing
``s`` and ``n`` classes, a request within ``s`` seconds of its deadline
is class 0 (most urgent), within ``2s`` class 1, ..., and anything
further out (including deadline-less prefetches) is class ``n-1``.

At each disk-free instant the highest-priority non-empty class is
selected and serviced in elevator order; priorities are recomputed from
the current time on every pop.  :meth:`RealTimeScheduler.classify` is
the reference for the class arithmetic that ``pop`` evaluates inline.
"""

from __future__ import annotations

import math

from repro.sched.base import DiskScheduler
from repro.storage.request import DiskRequest

_INF = math.inf


class RealTimeScheduler(DiskScheduler):
    name = "realtime"

    def __init__(self, priority_classes: int = 3, priority_spacing_s: float = 4.0) -> None:
        if priority_classes < 1:
            raise ValueError(f"need >= 1 priority class, got {priority_classes}")
        if priority_spacing_s <= 0:
            raise ValueError(f"spacing must be positive, got {priority_spacing_s}")
        super().__init__()
        self.priority_classes = priority_classes
        self.priority_spacing_s = priority_spacing_s
        self.direction = 1

    def classify(self, request: DiskRequest, now: float) -> int:
        """Priority class (0 = most urgent) of a request at time *now*."""
        slack = request.deadline - now
        if math.isinf(slack):
            return self.priority_classes - 1
        if slack < 0:
            return 0
        return min(int(slack / self.priority_spacing_s), self.priority_classes - 1)

    def pop(self, now: float, head_cylinder: int) -> DiskRequest:
        """Take the SCAN-next request of the most urgent non-empty class.

        One pass over the queue: each request's class is computed inline
        with :meth:`classify`'s arithmetic, and for the best class seen
        so far the pass keeps the nearest request ahead of the head in
        the sweep direction, keyed ``(distance, seq)``, and — while there
        is none — the nearest behind it.  The pick and the direction flip
        are exactly ``elevator_select`` over that class.
        """
        pending = self._pending
        spacing = self.priority_spacing_s
        lowest = self.priority_classes - 1
        direction = self.direction
        best_class = lowest + 1
        ahead = behind = None
        ahead_distance = behind_distance = 0
        for request in pending:
            slack = request.deadline - now
            if slack < 0:
                cls = lowest if slack == -_INF else 0
            elif slack == _INF:
                cls = lowest
            else:
                cls = int(slack / spacing)
                if cls > lowest:
                    cls = lowest
            if cls > best_class:
                continue
            if cls < best_class:
                best_class = cls
                ahead = behind = None
            # A request on the head's cylinder is both ahead and behind.
            distance = (request.cylinder - head_cylinder) * direction
            if distance >= 0 and (
                ahead is None
                or distance < ahead_distance
                or (distance == ahead_distance and request.seq < ahead.seq)
            ):
                ahead = request
                ahead_distance = distance
            if distance <= 0 and ahead is None and (
                behind is None
                or -distance < behind_distance
                or (-distance == behind_distance and request.seq < behind.seq)
            ):
                behind = request
                behind_distance = -distance
        if ahead is None:
            if behind is None:
                raise ValueError("pop() on an empty scheduler queue")
            # Nothing ahead in the best class: the sweep reverses.
            self.direction = -direction
            ahead = behind
        return self._take(pending.index(ahead))
