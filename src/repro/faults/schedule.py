"""Deterministic fault timetables drawn from a dedicated random stream.

The schedule is computed *before* the simulation starts, purely from
the :class:`~repro.faults.spec.FaultSpec`, the hardware shape, and one
:class:`~repro.sim.rng.RandomSource` — so a fault scenario is part of
the run's identity: the same config produces the same faults at the
same instants on any executor or job count.

Each disk gets its own child stream (``disk-<n>``), so adding disks
never perturbs another disk's faults — the same stream-per-component
discipline the rest of the simulator uses.
"""

from __future__ import annotations

import dataclasses
import math

from repro.faults.spec import DISK_FAIL, DISK_OUTAGE, DISK_SLOW, FaultSpec
from repro.sim.rng import RandomSource


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what, where, when, for how long."""

    start_s: float
    kind: str
    #: Global disk index.
    target: int
    #: ``inf`` for permanent failures.
    duration_s: float
    #: Latency multiplier for slow-I/O events; 0 otherwise.
    magnitude: float

    @property
    def permanent(self) -> bool:
        return math.isinf(self.duration_s)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


def build_schedule(
    spec: FaultSpec, disk_count: int, horizon_s: float, rng: RandomSource
) -> tuple[FaultEvent, ...]:
    """The full fault timetable for one run, in start-time order.

    *rng* must be a stream dedicated to fault generation (the system
    spawns ``"faults"`` off the master seed); *horizon_s* bounds event
    starts to the simulated interval ``[0, horizon_s)``.
    """
    if disk_count < 1:
        raise ValueError(f"disk_count must be >= 1, got {disk_count}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    events: list[FaultEvent] = []
    if spec.disk_fault_rate_per_hour > 0:
        for disk in range(disk_count):
            events.extend(
                _disk_events(spec, disk, horizon_s, rng.spawn(f"disk-{disk}"))
            )
    # Explicit permanent failures: scripted, no randomness consumed.
    for disk in spec.fail_disk_ids:
        if disk >= disk_count:
            raise ValueError(
                f"fail_disk_ids names disk {disk}, but the system has only "
                f"{disk_count} disks (valid: 0..{disk_count - 1})"
            )
        events.append(
            FaultEvent(
                start_s=spec.fail_at_s,
                kind=DISK_FAIL,
                target=disk,
                duration_s=math.inf,
                magnitude=0.0,
            )
        )
    events.sort(key=lambda event: (event.start_s, event.target, event.kind))
    return tuple(events)


def _disk_events(
    spec: FaultSpec, disk: int, horizon_s: float, rng: RandomSource
) -> list[FaultEvent]:
    mean_interval = 3600.0 / spec.disk_fault_rate_per_hour
    total_weight = spec._total_weight()
    events: list[FaultEvent] = []
    at = rng.exponential(mean_interval)
    while at < horizon_s:
        draw = rng.uniform(0.0, total_weight)
        if draw < spec.slow_weight:
            events.append(
                FaultEvent(
                    start_s=at,
                    kind=DISK_SLOW,
                    target=disk,
                    duration_s=rng.exponential(spec.mean_slow_duration_s),
                    magnitude=spec.slow_latency_multiplier,
                )
            )
        elif draw < spec.slow_weight + spec.outage_weight:
            events.append(
                FaultEvent(
                    start_s=at,
                    kind=DISK_OUTAGE,
                    target=disk,
                    duration_s=rng.exponential(spec.mean_outage_duration_s),
                    magnitude=0.0,
                )
            )
        else:
            events.append(
                FaultEvent(
                    start_s=at,
                    kind=DISK_FAIL,
                    target=disk,
                    duration_s=math.inf,
                    magnitude=0.0,
                )
            )
            break  # A dead drive produces no further faults.
        at += rng.exponential(mean_interval)
    return events

