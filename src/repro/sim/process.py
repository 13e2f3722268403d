"""Generator-driven simulated processes."""

from __future__ import annotations

import types
import typing

from repro.sim.errors import SimError
from repro.sim.events import _PENDING, _UNRESOLVED, NORMAL, URGENT, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Process(Event):
    """A simulated activity driven by a Python generator.

    The generator yields :class:`Event` instances; the process sleeps
    until each yielded event fires, then resumes with the event's value
    (or has the event's exception thrown at the yield point).

    A ``Process`` is itself an :class:`Event` that succeeds with the
    generator's return value when it finishes, so processes can wait for
    each other simply by yielding them.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: typing.Generator,
        name: str | None = None,
    ) -> None:
        if not isinstance(generator, types.GeneratorType):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        # One per server reply and block fetch: ``Event.__init__`` and
        # the bootstrap's ``Environment._schedule`` are inlined flat, the
        # way ``Timeout`` does it, with the same (time, priority, seq).
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or generator.__name__
        # Kick the process off via an immediately-scheduled bootstrap event.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap._value = None
        env._seq += 1
        env._push((env._now, NORMAL, env._seq, bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome.

        Runs once per processed event a process waits on — a kernel hot
        path — so event state is read through slots (``_ok``/``_value``)
        rather than properties; only lazily-valued condition events pay
        the :attr:`Event.value` materialisation.
        """
        try:
            if event._ok:
                value = event._value
                if value is _UNRESOLVED:
                    value = event.value  # materialise a condition's dict
                result = self._generator.send(value)
            else:
                # The exception is being delivered into a process; it is
                # that process's job to handle or propagate it.
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return

        if not isinstance(result, Event):
            exc = SimError(
                f"process {self.name!r} yielded {result!r}, which is not an Event"
            )
            self._generator.throw(exc)
            return
        if result.callbacks is not None:
            result.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately with its final value
            # (via the property, which materialises lazy condition dicts).
            env = self.env
            immediate = Event(env)
            immediate._ok = result._ok
            immediate._value = result.value
            if not result._ok:
                immediate._defused = True
            immediate.callbacks.append(self._resume)
            env._schedule(immediate, priority=URGENT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} at {id(self):#x}>"
