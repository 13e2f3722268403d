"""Applying a fault schedule to a live system, and the shared runtime
state the degraded-mode server paths consult.

:class:`FaultRuntime` is the blackboard: which faults are active right
now (for glitch attribution), the degraded-mode knobs from the spec,
resettable counters for metrics, and the optional trace recorder.
:class:`FaultInjector` is the simulation process that walks the
precomputed :func:`~repro.faults.schedule.build_schedule` timetable,
flipping component fault state on and off at the scheduled instants.
"""

from __future__ import annotations

import math
import typing

from repro.faults.schedule import FaultEvent
from repro.faults.spec import DISK_FAIL, DISK_OUTAGE, DISK_SLOW, FaultSpec
from repro.sim.environment import Environment
from repro.telemetry.trace import FAULT_END, FAULT_RETRY, FAULT_START

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.replication.health import HealthMonitor
    from repro.server.admission import AdmissionController
    from repro.storage.drive import DiskDrive
    from repro.telemetry.trace import TraceRecorder

#: Seconds after a fault ends during which a starting glitch is still
#: blamed on it.
ATTRIBUTION_GRACE_S = 5.0


class FaultStats:
    """Resettable fault accounting for the measurement window."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events_injected = 0
        self.retries = 0
        self.abandoned_reads = 0
        self.failed_reads = 0


class FaultRuntime:
    """Shared fault state: activity tracking, counters, degraded knobs."""

    def __init__(self, env: Environment, spec: FaultSpec) -> None:
        self.env = env
        self.spec = spec
        self.stats = FaultStats()
        #: Optional :class:`~repro.telemetry.trace.TraceRecorder`.
        self.trace: "TraceRecorder | None" = None
        self._active = 0
        self._last_end = -math.inf

    # --- activity tracking (drives glitch attribution) -----------------
    @property
    def active_faults(self) -> int:
        return self._active

    def fault_began(self, event: FaultEvent) -> None:
        self._active += 1
        self.stats.events_injected += 1
        if self.trace is not None:  # skip building fields when untraced
            self.record(
                FAULT_START,
                fault=event.kind,
                target=event.target,
                magnitude=event.magnitude,
                duration_s=event.duration_s,
            )

    def fault_ended(self, event: FaultEvent) -> None:
        if self._active <= 0:
            raise ValueError("fault_ended() with no active faults")
        self._active -= 1
        self._last_end = self.env.now
        if self.trace is not None:
            self.record(FAULT_END, fault=event.kind, target=event.target)

    def attributable(self) -> bool:
        """Whether a glitch starting now should be blamed on a fault."""
        if self._active > 0:
            return True
        return (self.env.now - self._last_end) <= ATTRIBUTION_GRACE_S

    # --- degraded-mode accounting (called from the server node) --------
    def note_retry(self, disk_id: int, terminal_id: int, attempt: int) -> None:
        self.stats.retries += 1
        if self.trace is not None:
            self.record(
                FAULT_RETRY, disk=disk_id, terminal=terminal_id, attempt=attempt
            )

    def note_abandoned(self, disk_id: int, terminal_id: int) -> None:
        self.stats.abandoned_reads += 1

    def note_failed_read(self, disk_id: int, terminal_id: int) -> None:
        self.stats.failed_reads += 1

    def record(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(kind, **fields)

    def reset_stats(self) -> None:
        self.stats.reset()


class FaultInjector:
    """Walks the fault timetable, degrading and restoring components."""

    def __init__(
        self,
        env: Environment,
        runtime: FaultRuntime,
        schedule: typing.Sequence[FaultEvent],
        drives: typing.Sequence["DiskDrive"],
        admission: "AdmissionController",
        health: "HealthMonitor | None" = None,
    ) -> None:
        self.env = env
        self.runtime = runtime
        self.schedule = tuple(schedule)
        self.drives = list(drives)
        self.admission = admission
        #: Optional per-disk health model (replication configured); told
        #: about every disk fault as it is applied and reverted.
        self.health = health
        if self.schedule:
            env.process(self._run(), name="fault-injector")

    def _run(self):
        env = self.env
        for event in self.schedule:
            if event.start_s > env.now:
                yield env.timeout(event.start_s - env.now)
            env.process(
                self._fault(event), name=f"fault-{event.kind}-{event.target}"
            )
        return None

    def _fault(self, event: FaultEvent):
        """One fault's lifetime: apply, hold, revert."""
        runtime = self.runtime
        runtime.fault_began(event)
        if event.kind == DISK_SLOW:
            self.drives[event.target].add_slowdown(event.magnitude)
        elif event.kind == DISK_OUTAGE:
            self.drives[event.target].begin_outage()
        elif event.kind == DISK_FAIL:
            self.drives[event.target].fail_permanently()
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")
        if self.health is not None:
            self.health.fault_applied(event)
        if event.kind == DISK_OUTAGE:
            # An outage sheds admissions for as long as it lasts.
            self.admission.begin_shed()

        if event.permanent:
            # Permanent failures never revert; the fault stays active,
            # so every later glitch is fault-attributed.
            return None
        yield self.env.timeout(event.duration_s)

        if event.kind == DISK_SLOW:
            self.drives[event.target].remove_slowdown(event.magnitude)
        elif event.kind == DISK_OUTAGE:
            self.drives[event.target].end_outage()
        if self.health is not None:
            self.health.fault_reverted(event)
        if event.kind == DISK_OUTAGE:
            self.admission.end_shed()
        runtime.fault_ended(event)
        return None
