"""Core event types for the process-oriented simulation kernel.

The kernel follows the design of CSIM (which the paper's simulator used)
and SimPy: simulated activities are Python generator functions that
``yield`` events; the :class:`~repro.sim.environment.Environment` resumes
them when those events fire.

Hot-path notes: every simulated disk I/O, network transfer, and frame
consumed bottoms out in a handful of ``Timeout``/``Event`` schedules, so
this module trades a little indirection for speed — ``__slots__``
everywhere, queue pushes inlined into the trigger methods as a single
call through the environment's pre-bound ``_push`` (the C ``heappush``
partially applied to the environment's queue list) instead of routed
through ``Environment._schedule``, and condition values built lazily.
All of it is pinned bit-identical by the golden-digest tests in
``tests/sim/test_golden_digest.py`` and by the differential harness in
``tests/sim/harness.py``.
"""

from __future__ import annotations

import typing

from repro.sim.errors import EventLifecycleError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

#: Scheduling priorities: URGENT events at the same timestamp are
#: processed before NORMAL ones.  Used to resume a process that yielded
#: an already-processed event.  Defined here (and re-exported by
#: ``repro.sim.environment``) so the inlined scheduling below needs no
#: import cycle.
URGENT = 0
NORMAL = 1

#: Sentinel for "no value yet".
_PENDING = object()

#: Sentinel for "triggered, value not materialised yet" (condition
#: events build their value dicts lazily on first access).
_UNRESOLVED = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    An event moves through three states:

    1. *untriggered* — freshly created;
    2. *triggered* — :meth:`succeed` or :meth:`fail` has been called and
       the event is scheduled on the event queue;
    3. *processed* — its callbacks have run and its value is final.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables ``(event) -> None`` run when the event is processed.
        #: ``None`` once the event has been processed.
        self.callbacks: list | None = []
        self._value: object = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and :attr:`value` is final."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        if self._value is _PENDING:
            raise EventLifecycleError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._value is not _PENDING:
            raise EventLifecycleError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._push((env._now, NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have *exception* thrown at their yield
        point.  If nobody is waiting, the exception propagates out of
        :meth:`Environment.step` to surface bugs loudly.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventLifecycleError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        env._push((env._now, NORMAL, env._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if not delay >= 0:  # also rejects NaN, which compares false
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        # The single hottest constructor in the simulator: every frame
        # consumed, disk transfer, and think pause makes one.  The
        # ``Event.__init__`` + ``succeed``-style indirection is inlined
        # flat; the (time, priority, seq) tuple is identical to what
        # ``Environment._schedule`` would have pushed.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._seq += 1
        env._push((env._now + delay, NORMAL, env._seq, self))


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a dict mapping the fired events (so far) to their values.
    An event that was already processed when the condition is composed
    counts as fired — including a processed *failure*, which fails the
    condition just as a post-composition failure would.

    The value dict is *not* built when the condition triggers: most
    waiters (``yield env.any_of([...])`` racing a grant against a
    timeout) never look at it.  Triggering records which events to
    include — membership is decided at trigger time — and the dict is
    materialised on first :attr:`value` access.

    Once fired, the condition takes its callback off every event that
    has not fired: a long-lived event raced many times (a member's
    outage event against each session's playback) would otherwise keep
    every finished race, and all it refers to, alive.  A callback on a
    fired condition does nothing, so detaching changes no outcome.
    """

    __slots__ = ("_events", "_fired")

    def __init__(self, env: "Environment", events: typing.Sequence[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired: list | None = None
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed: fires now
                self._trigger(event)
                return
        on_fire = self._on_fire
        for event in self._events:
            event.callbacks.append(on_fire)

    @property
    def value(self) -> object:
        if self._value is _UNRESOLVED:
            self._value = {e: e._value for e in self._fired}
        if self._value is _PENDING:
            raise EventLifecycleError(f"value of {self!r} is not yet available")
        return self._value

    def _on_fire(self, event: Event) -> None:
        if self._value is not _PENDING:
            return  # the fired event is listed twice
        on_fire = self._on_fire
        for other in self._events:
            callbacks = other.callbacks
            if callbacks is not None:  # not processed: still holds ours
                callbacks.remove(on_fire)
        self._trigger(event)

    def _trigger(self, event: Event) -> None:
        """Fire (or fail) on *event*, the first member to fire."""
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        # Succeed with the lazily-built dict over the fired events.
        self._ok = True
        self._value = _UNRESOLVED
        self._fired = [e for e in self._events if e.callbacks is None and e._ok]
        env = self.env
        env._seq += 1
        env._push((env._now, NORMAL, env._seq, self))
