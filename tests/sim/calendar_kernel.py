"""A calendar-queue scheduler kept as a second, independent oracle.

``repro.sim.Environment`` keeps its pending events in one ``heapq``
list.  This module holds what the kernel does not ship: Brown's
calendar queue (time-bucketed rings, an ``_extra`` heap for pushes at
or behind the active bucket, ``_far`` parking for infinite times,
adaptive bucket-width resizing) and :class:`QueueEnvironment`, the real
kernel with its list swapped for any object with the small queue
contract below.  The differential, property and golden suites replay
the same programs on both schedulers; because the execution order is a
property of the ``(time, priority, seq)`` tuples alone, a structurally
different queue that agrees bit-for-bit is strong evidence that the
kernel's ordering is the tuple order and nothing else.

Queue contract (duck-typed):

``push(item)``
    Insert one ``(time, priority, seq, Event)`` tuple.  ``time`` is
    never in the past of the last popped item.
``pop()``
    Remove and return the minimum item (tuple order); raise
    ``IndexError`` when empty.
``peek_time()``
    The minimum item's time without removing it, ``float("inf")`` when
    empty.
``__len__`` / ``__bool__``
    Pending item count / emptiness.

:func:`system_kernels` patches the two places the simulator builds its
``Environment`` so whole ``SpiffiSystem``/``SpiffiCluster`` runs execute
on the calendar queue.
"""

from __future__ import annotations

import contextlib
from heapq import heappop, heappush

from repro.sim import Environment, SimError, StopSimulation
from repro.sim.events import Event

_INFINITY = float("inf")

#: Sentinel slot index ordering before every representable slot.
_BEFORE_ALL_SLOTS = -(2**63)


class CalendarEventQueue:
    """A calendar queue: time-sliced buckets with an active sorted run.

    Structure
    ---------
    * ``_buckets`` maps integer slot indices (``int(time / width)``) to
      unsorted lists of pending items; ``_slots`` is a heap of the
      occupied slot indices.  An insert is a dict lookup plus a C-level
      ``list.append`` — O(1).
    * ``_cur`` is the *active* bucket: when the earliest slot drains
      into it, it is sorted **descending** once (C timsort) so extracts
      are ``list.pop()`` off the tail — O(1), cache-hot.
    * ``_extra`` is a small heap catching inserts that land at or
      behind the active slot (zero-delay events, URGENT immediate
      resumes at ``now``): each extract takes whichever of
      ``_extra[0]`` / ``_cur[-1]`` is smaller, preserving the global
      ``(time, priority, seq)`` order exactly.
    * ``_far`` is a heap for unrepresentable times (``inf``), merged
      only when everything finite has drained.

    Ordering holds structurally: the slot map is monotone in time, so
    every item in a future bucket sorts after every item in the active
    run, and the ``_extra`` tie-break handles the rest.

    Adaptive width
    --------------
    With ``bucket_width_s=0`` (the default) the width starts at 1 s and
    is re-estimated from the observed mean occupancy every
    ``resize_interval`` bucket activations — or every
    ``32 * target_occupancy`` drained items, whichever comes first, so
    a grossly oversized width self-corrects within a couple of giant
    buckets — targeting ``target_occupancy`` items per bucket; when the
    ideal width drifts beyond 2x in either direction the pending set is
    redistributed (O(n), amortized).  Both
    the trigger and the new width are pure functions of the event
    sequence, so runs stay bit-deterministic — and extraction order is
    width-independent anyway, which the isolation property tests pin
    across degenerate widths.
    """

    __slots__ = (
        "_width",
        "_inv_width",
        "_buckets",
        "_slots",
        "_cur",
        "_cur_slot",
        "_extra",
        "_far",
        "_adaptive",
        "_target_occupancy",
        "_resize_interval",
        "_resize_drained",
        "_advances",
        "_drained",
    )

    #: Default items-per-bucket the adaptive resize steers toward.  The
    #: empirical sweet spot for CPython: wide enough that slot-heap and
    #: dict churn amortize away, narrow enough that the active run's
    #: sort and the ``_extra`` merges stay cheap.
    TARGET_OCCUPANCY = 32

    #: Bucket activations between occupancy re-estimates.
    RESIZE_INTERVAL = 512

    def __init__(
        self,
        bucket_width_s: float = 0.0,
        *,
        target_occupancy: int | None = None,
        resize_interval: int | None = None,
    ) -> None:
        if not bucket_width_s >= 0.0 or bucket_width_s == _INFINITY:
            raise ValueError(
                f"bucket width must be a finite value >= 0 (0 = adaptive), "
                f"got {bucket_width_s!r}"
            )
        self._adaptive = bucket_width_s == 0.0
        self._width = bucket_width_s if bucket_width_s > 0.0 else 1.0
        self._inv_width = 1.0 / self._width
        self._buckets: dict[int, list] = {}
        self._slots: list[int] = []
        self._cur: list = []
        self._cur_slot = _BEFORE_ALL_SLOTS
        self._extra: list = []
        self._far: list = []
        self._target_occupancy = (
            self.TARGET_OCCUPANCY if target_occupancy is None else target_occupancy
        )
        self._resize_interval = (
            self.RESIZE_INTERVAL if resize_interval is None else resize_interval
        )
        # Second re-estimate trigger: total items drained since the last
        # estimate.  Without it a badly oversized width (e.g. the 1 s
        # start against tens of thousands of sub-second timers) packs
        # the whole pending set into a handful of giant buckets and the
        # activation-count trigger never fires.
        self._resize_drained = 32 * self._target_occupancy
        self._advances = 0
        self._drained = 0

    # ------------------------------------------------------------------
    # The EventQueue contract
    # ------------------------------------------------------------------
    def push(self, item: tuple) -> None:
        try:
            slot = int(item[0] * self._inv_width)
        except (OverflowError, ValueError):
            # time == inf: parked until everything finite has drained.
            heappush(self._far, item)
            return
        if slot > self._cur_slot:
            try:
                self._buckets[slot].append(item)
            except KeyError:
                self._buckets[slot] = [item]
                heappush(self._slots, slot)
        else:
            heappush(self._extra, item)

    def pop(self) -> tuple:  # noqa: A003 - the EventQueue contract name
        cur = self._cur
        if cur:
            extra = self._extra
            if extra and extra[0] < cur[-1]:
                return heappop(extra)
            return cur.pop()
        if self._extra:
            return heappop(self._extra)
        if self._slots:
            self._advance()
            return self._cur.pop()
        if self._far:
            return heappop(self._far)
        raise IndexError("pop from an empty event queue")

    def peek_time(self) -> float:
        if self._cur:
            extra = self._extra
            head = self._cur[-1]
            if extra and extra[0] < head:
                return extra[0][0]
            return head[0]
        if self._extra:
            return self._extra[0][0]
        if self._slots:
            return min(self._buckets[self._slots[0]])[0]
        if self._far:
            return self._far[0][0]
        return _INFINITY

    def __len__(self) -> int:
        return (
            len(self._cur)
            + len(self._extra)
            + len(self._far)
            + sum(len(bucket) for bucket in self._buckets.values())
        )

    def __bool__(self) -> bool:
        return bool(self._cur or self._extra or self._slots or self._far)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CalendarEventQueue len={len(self)} width={self._width:g} "
            f"buckets={len(self._buckets)}>"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Activate the earliest occupied bucket as the sorted run.

        Callers guarantee ``_cur`` and ``_extra`` are empty and
        ``_slots`` is not.  Sorted descending so the run drains via
        ``list.pop()``; the resize estimate piggybacks here so its cost
        is per-bucket, never per-event.
        """
        if self._adaptive and (
            self._advances >= self._resize_interval
            or self._drained >= self._resize_drained
        ):
            self._maybe_resize()
        slot = heappop(self._slots)
        bucket = self._buckets.pop(slot)
        bucket.sort(reverse=True)
        self._cur = bucket
        self._cur_slot = slot
        self._advances += 1
        self._drained += len(bucket)

    def _maybe_resize(self) -> None:
        """Re-center the bucket width on the observed occupancy."""
        occupancy = self._drained / self._advances
        self._advances = 0
        self._drained = 0
        if occupancy <= 0:
            return
        ideal = self._width * (self._target_occupancy / occupancy)
        ratio = ideal / self._width
        if 0.5 <= ratio <= 2.0:
            return
        # Geometric damping: move halfway (in log space) toward the
        # ideal so one anomalous estimate cannot thrash the width.
        new_width = (self._width * ideal) ** 0.5
        if not (0.0 < new_width < _INFINITY):
            return
        items: list = []
        for bucket in self._buckets.values():
            items.extend(bucket)
        self._buckets.clear()
        self._slots.clear()
        self._width = new_width
        self._inv_width = 1.0 / new_width
        self._cur_slot = _BEFORE_ALL_SLOTS
        buckets = self._buckets
        slots = self._slots
        inv_width = self._inv_width
        for item in items:
            slot = int(item[0] * inv_width)
            try:
                buckets[slot].append(item)
            except KeyError:
                buckets[slot] = [item]
                heappush(slots, slot)


class QueueEnvironment(Environment):
    """The kernel running on *queue* instead of its ``heapq`` list.

    Event creation, process resumption and the ``(time, priority,
    seq)`` tuples are the real kernel's; only the scheduling structure
    differs.  ``run`` drives :meth:`step` through the queue interface,
    with the same ``until`` semantics as :meth:`Environment.run`.
    """

    __slots__ = ()

    def __init__(self, queue, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._queue = queue
        self._push = queue.push

    def peek(self) -> float:
        return self._queue.peek_time()

    def step(self) -> None:
        try:
            when, _priority, _seq, event = self._queue.pop()
        except IndexError:
            raise SimError("step() on an empty event queue") from None
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: float | Event | None = None) -> object:
        stopped: list = []
        watching = isinstance(until, Event)
        if watching:
            if until.processed:
                if until.ok:
                    return until.value
                raise until.value
            until.callbacks.append(stopped.append)
            deadline = _INFINITY
        else:
            deadline = _INFINITY if until is None else float(until)
            if not deadline >= self._now:
                raise ValueError(
                    f"run(until={deadline!r}) must not be before now={self._now}"
                )
        queue = self._queue
        try:
            while queue and queue.peek_time() <= deadline:
                self.step()
                if stopped:
                    event = stopped[0]
                    if event._ok:
                        return event.value
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        if deadline != _INFINITY:
            self._now = deadline
        if watching and not until.processed:
            raise SimError("run() ran out of events before `until` fired")
        return None


def calendar_environment(bucket_width_s: float = 0.0) -> QueueEnvironment:
    """A fresh kernel on a calendar queue (0 = adaptive width)."""
    return QueueEnvironment(CalendarEventQueue(bucket_width_s))


#: Schedulers a whole ``SpiffiSystem``/``SpiffiCluster`` run can use.
SYSTEM_BACKENDS = ("heap", "calendar")


@contextlib.contextmanager
def system_kernels(backend: str, monkeypatch):
    """Build every ``SpiffiNode``/``SpiffiCluster`` kernel on *backend*
    while the block is active (``heap`` leaves the simulator as is).

    Worker processes of a ``ProcessExecutor`` forked inside the block
    inherit the patch.  Yields the list of calendar environments built
    in this process, so a test can check the patch took effect.
    """
    if backend not in SYSTEM_BACKENDS:
        raise ValueError(f"unknown scheduler {backend!r}; choose from {SYSTEM_BACKENDS}")
    built: list = []

    def factory() -> QueueEnvironment:
        env = calendar_environment()
        built.append(env)
        return env

    with monkeypatch.context() as patch:
        if backend == "calendar":
            patch.setattr("repro.core.node.Environment", factory)
            patch.setattr("repro.cluster.system.Environment", factory)
        yield built
