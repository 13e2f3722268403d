"""Seeded fault injection and degraded-mode behaviour.

The subsystem is inert unless :class:`FaultSpec` on the run config has
a nonzero fault rate; the default (empty) spec leaves every run
bit-identical to a build without this package.
"""

from repro.faults.injector import FaultInjector, FaultRuntime, FaultStats
from repro.faults.schedule import FaultEvent, build_schedule
from repro.faults.spec import (
    DISK_FAIL,
    DISK_OUTAGE,
    DISK_SLOW,
    FAULT_KINDS,
    FaultSpec,
)

__all__ = [
    "DISK_FAIL",
    "DISK_OUTAGE",
    "DISK_SLOW",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultRuntime",
    "FaultSpec",
    "FaultStats",
    "build_schedule",
]
