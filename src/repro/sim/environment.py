"""The simulation environment: clock, event queue, and run loop.

Pending events live in one plain ``list`` kept in heap order by the C
:mod:`heapq` functions.  Entries are ``(time, priority, seq, event)``
tuples, so the heap pops them in exactly the kernel's execution order.
"""

from __future__ import annotations

import typing
from functools import partial
from heapq import heappop, heappush

from repro.sim.errors import SimError, StopSimulation
from repro.sim.events import NORMAL, URGENT, AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment", "NORMAL", "URGENT"]


class Environment:
    """Holds the simulation clock and executes events in time order.

    Determinism: given the same seedable inputs, event execution order is
    fully deterministic — ties on (time, priority) break on insertion
    order via a monotonically increasing sequence number.  The seeded
    differential harness in ``tests/sim`` replays random programs
    against a naive reference interpreter to enforce exactly that.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_push",
        "_seq",
        "events_processed",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list = []
        # The hot constructors (``Timeout``, ``succeed``/``fail``, the
        # condition triggers) schedule through this bound callable: the
        # C ``heappush`` partially applied to the queue list, which
        # measures within noise of an inline ``heappush`` call.
        self._push = partial(heappush, self._queue)
        self._seq = 0
        #: Lifetime count of events executed — the simulator's work
        #: measure, read by ``repro.telemetry.runstats``.  Inside
        #: :meth:`run` the count is accumulated in a local and flushed
        #: when the loop exits (normally or by exception); :meth:`step`
        #: updates it immediately.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator, name: str | None = None) -> Process:
        """Start a new simulated process from a generator."""
        return Process(self, generator, name=name)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the queue (kernel internal).

        Hot constructors (``Timeout``, ``Event.succeed``/``fail``, the
        condition events, the process bootstrap, resource grants) inline
        this push; the rare path (resuming on an already-processed
        event) still comes through here.  Both produce identical
        ``(time, priority, seq)`` tuples from the shared counter, so
        ordering is unaffected by which path is used.
        """
        self._seq += 1
        self._push((self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            when, _priority, _seq, event = heappop(self._queue)
        except IndexError:
            raise SimError("step() on an empty event queue") from None
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event that nobody handled: surface it.
            raise event._value

    def run(self, until: float | Event | None = None) -> object:
        """Run until a time, until an event fires, or until the queue drains.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event fires, returning its
          value (or raising its exception).
        """
        stop_value: list = []
        watching = isinstance(until, Event)
        if until is None:
            deadline = float("inf")
        elif watching:
            deadline = float("inf")
            if until.processed:
                if until.ok:
                    return until.value
                raise until.value

            def _stop(event: Event) -> None:
                stop_value.append(event)

            until.callbacks.append(_stop)
        else:
            deadline = float(until)
            if not deadline >= self._now:
                raise ValueError(
                    f"run(until={deadline!r}) must not be before now={self._now}"
                )

        # The hot loop: step() inlined, with the queue, heappop, and the
        # event counter bound to locals.  Behaviour is identical to
        # repeated step() calls; only attribute traffic is saved.  The
        # until-event check is hoisted behind the ``watching`` flag so it
        # costs nothing per event when unused.
        queue = self._queue
        pop = heappop
        processed = 0
        try:
            while queue:
                if queue[0][0] > deadline:
                    self._now = deadline
                    return None
                when, _priority, _seq, event = pop(queue)
                self._now = when
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failed event that nobody handled: surface it.
                    raise event._value
                if watching and stop_value:
                    event = stop_value[0]
                    if event._ok:
                        return event.value
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += processed

        if deadline != float("inf"):
            self._now = deadline
        if watching and not until.processed:
            raise SimError("run() ran out of events before `until` fired")
        return None

    def stop(self, value: object = None) -> None:
        """End the current :meth:`run` immediately."""
        raise StopSimulation(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment now={self._now} queued={len(self._queue)}>"
