"""Exception types used by the simulation kernel."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation kernel errors."""


class EventLifecycleError(SimError):
    """An event was succeeded/failed twice, or misused after processing."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value
