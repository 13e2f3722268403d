"""Scheduler construction from a declarative, registry-backed spec.

Built-in algorithms register themselves below; third-party schedulers
plug in through :func:`register_scheduler` without touching
``repro.core.system``::

    from repro.sched import SchedulerSpec, register_scheduler

    register_scheduler("my_sched", lambda spec: MyScheduler())
    config = SpiffiConfig(scheduler=SchedulerSpec("my_sched"))

A factory receives the full :class:`SchedulerSpec`, so parameterised
algorithms read their knobs off it (see the ``gss`` and ``realtime``
registrations).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.registry import Registry
from repro.sched.base import DiskScheduler
from repro.sched.edf import EdfScheduler
from repro.sched.elevator import ElevatorScheduler
from repro.sched.fcfs import FcfsScheduler
from repro.sched.gss import GssScheduler
from repro.sched.realtime import RealTimeScheduler
from repro.sched.round_robin import RoundRobinScheduler


@dataclasses.dataclass(frozen=True)
class _Registration:
    factory: typing.Callable[["SchedulerSpec"], DiskScheduler]
    label: typing.Callable[["SchedulerSpec"], str] | None = None


SCHEDULERS: Registry[_Registration] = Registry("scheduler")


def register_scheduler(
    name: str,
    factory: typing.Callable[["SchedulerSpec"], DiskScheduler],
    label: typing.Callable[["SchedulerSpec"], str] | None = None,
) -> None:
    """Make *name* selectable via ``SchedulerSpec(name)``.

    *factory* builds a fresh scheduler instance from the spec (one per
    disk).  *label* optionally renders a human-readable table label
    from the spec.
    """
    SCHEDULERS.register(name, _Registration(factory, label))


scheduler_names = SCHEDULERS.names


@dataclasses.dataclass(frozen=True)
class SchedulerSpec:
    """Which disk scheduling algorithm to run, with its parameters.

    ``realtime`` uses *priority_classes* and *priority_spacing_s*
    (e.g. the paper's "3 priority classes with 4 second priority
    spacing"); ``gss`` uses *gss_groups*.
    """

    name: str = "elevator"
    priority_classes: int = 3
    priority_spacing_s: float = 4.0
    gss_groups: int = 1

    def __post_init__(self) -> None:
        SCHEDULERS.lookup(self.name)

    def build(self) -> DiskScheduler:
        """A fresh scheduler instance (one per disk)."""
        return SCHEDULERS.lookup(self.name).factory(self)

    def label(self) -> str:
        """Human-readable label used in benchmark tables."""
        custom = SCHEDULERS.lookup(self.name).label
        if custom is not None:
            return custom(self)
        return self.name.replace("_", "-")


register_scheduler("fcfs", lambda spec: FcfsScheduler())
register_scheduler("elevator", lambda spec: ElevatorScheduler())
register_scheduler("round_robin", lambda spec: RoundRobinScheduler())
register_scheduler(
    "gss",
    lambda spec: GssScheduler(spec.gss_groups),
    label=lambda spec: (
        f"GSS ({spec.gss_groups} group{'s' if spec.gss_groups != 1 else ''})"
    ),
)
register_scheduler(
    "realtime",
    lambda spec: RealTimeScheduler(spec.priority_classes, spec.priority_spacing_s),
    label=lambda spec: (
        f"real-time ({spec.priority_classes} prio, "
        f"{spec.priority_spacing_s:g}s spacing)"
    ),
)
register_scheduler("edf", lambda spec: EdfScheduler())
