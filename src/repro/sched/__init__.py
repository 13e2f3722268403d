"""Disk scheduling algorithms: the paper's real-time scheduler plus the
elevator, GSS, round-robin, FCFS, and EDF baselines."""

from repro.sched.base import DiskScheduler, elevator_select
from repro.sched.edf import EdfScheduler
from repro.sched.elevator import ElevatorScheduler
from repro.sched.fcfs import FcfsScheduler
from repro.sched.gss import GssScheduler
from repro.sched.realtime import RealTimeScheduler
from repro.sched.registry import (
    SchedulerSpec,
    register_scheduler,
    scheduler_names,
)
from repro.sched.round_robin import RoundRobinScheduler

__all__ = [
    "DiskScheduler",
    "EdfScheduler",
    "ElevatorScheduler",
    "FcfsScheduler",
    "GssScheduler",
    "RealTimeScheduler",
    "RoundRobinScheduler",
    "SchedulerSpec",
    "elevator_select",
    "register_scheduler",
    "scheduler_names",
]
