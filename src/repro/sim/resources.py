"""Shared-resource primitives: semaphore-style resources, stores, gates."""

from __future__ import annotations

import typing
from heapq import heappop, heappush
from collections import deque

from repro.sim.environment import Environment
from repro.sim.errors import SimError
from repro.sim.events import _PENDING, NORMAL, Event


class Request(Event):
    """Pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource", "priority", "holds")

    def __init__(self, resource: "Resource", priority: int) -> None:
        # Every CPU burst makes one: ``Event.__init__`` is inlined flat.
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        #: True from the grant until the release.
        self.holds = False


class Resource:
    """A counted resource (e.g. a CPU) with FIFO or priority queuing.

    Usage from a process::

        req = cpu.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            cpu.release(req)
    """

    __slots__ = (
        "env",
        "capacity",
        "name",
        "_in_use",
        "_waiting",
        "_seq",
        "_grants",
        "_busy_since",
        "_busy_time",
    )

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: list[tuple[int, int, Request]] = []
        self._seq = 0
        # Statistics.
        self._grants = 0
        self._busy_since: float | None = None
        self._busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim one unit; the returned event fires when granted.

        Lower *priority* values are granted first; ties are FIFO.
        """
        req = Request(self, priority)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._seq += 1
            heappush(self._waiting, (priority, self._seq, req))
        return req

    def release(self, request: Request) -> None:
        """Return one unit and grant the next waiter, if any.

        Only a granted, not yet released request holds a unit; releasing
        a queued or already released one raises :class:`SimError`.
        """
        if request.resource is not self:
            raise SimError("release() of a request belonging to another resource")
        if not request.holds:
            state = "already released" if request._value is not _PENDING else "queued"
            raise SimError(
                f"release() of a {state} request to {self.name!r}: it holds no unit"
            )
        request.holds = False
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.env._now - self._busy_since
            self._busy_since = None
        if self._waiting:
            _, _, nxt = heappop(self._waiting)
            self._grant(nxt)

    def _grant(self, request: Request) -> None:
        self._in_use += 1
        self._grants += 1
        env = self.env
        if self._busy_since is None:
            self._busy_since = env._now
        request.holds = True
        # ``request.succeed()`` inlined: a request is granted only once.
        request._value = None
        env._seq += 1
        env._push((env._now, NORMAL, env._seq, request))

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time at least one unit was in use."""
        busy = self._busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        total = elapsed if elapsed is not None else self.env.now
        return busy / total if total > 0 else 0.0

    def reset_stats(self) -> None:
        self._busy_time = 0.0
        self._grants = 0
        if self._busy_since is not None:
            self._busy_since = self.env.now


class StoreGet(Event):
    """Pending retrieval from a store; fires with the item."""

    __slots__ = ()


class Store:
    """An unbounded FIFO mailbox of items.

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item (immediately, if one is available).
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> typing.Sequence:
        """Read-only view of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: object) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def remove(self, predicate: typing.Callable[[object], bool]) -> list:
        """Remove and return all queued items matching *predicate*."""
        kept: deque = deque()
        removed: list = []
        for item in self._items:
            if predicate(item):
                removed.append(item)
            else:
                kept.append(item)
        self._items = kept
        return removed


class PriorityStore(Store):
    """A store whose ``get`` returns the smallest item first.

    Items must be orderable (tuples of ``(sort_key, seq, payload)`` work
    well).  Used for deadline-ordered prefetch queues.
    """

    __slots__ = ("_heap",)

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> typing.Sequence:
        return tuple(sorted(self._heap))

    def put(self, item: object) -> None:
        if self._getters:
            # Even with waiters, respect ordering against queued items.
            if self._heap and self._heap[0] < item:
                heappush(self._heap, item)
                item = heappop(self._heap)
            self._getters.popleft().succeed(item)
        else:
            heappush(self._heap, item)

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        if self._heap:
            event.succeed(heappop(self._heap))
        else:
            self._getters.append(event)
        return event

    def peek(self) -> object:
        if not self._heap:
            raise SimError("peek() on an empty PriorityStore")
        return self._heap[0]


class Gate:
    """A broadcast condition: processes wait; ``open()`` wakes them all.

    Unlike an :class:`Event`, a gate is reusable — each ``open()``
    releases the current crowd of waiters and re-arms.
    """

    __slots__ = ("env", "_waiters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def open(self, value: object = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        for event in waiters:
            event.succeed(value)
        return len(waiters)
