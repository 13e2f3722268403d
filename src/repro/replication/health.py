"""Per-disk health states driving replica-aware read routing.

The monitor is a pure observer fed from two sides:

* the :class:`~repro.faults.injector.FaultInjector` reports every disk
  fault as it is applied and reverted (outage → DOWN, permanent failure
  → FAILED, slow I/O → SUSPECT while active);
* the server node reports request timeouts, which mark a disk SUSPECT
  for :data:`SUSPECT_COOLDOWN_S` even when no fault has been identified —
  the usual situation in a real system, where the health model sees
  symptoms before causes.

States rank HEALTHY < SUSPECT < DOWN < FAILED; the read router prefers
the lowest rank and breaks ties by queue length.  Permanent failures
additionally fan out to subscribed callbacks (the rebuild manager).
"""

from __future__ import annotations

import math
import typing

from repro.faults.spec import DISK_FAIL, DISK_OUTAGE, DISK_SLOW
from repro.telemetry.trace import HEALTH_CHANGE

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultEvent
    from repro.sim.environment import Environment
    from repro.telemetry.trace import TraceRecorder

HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"
FAILED = "failed"

_RANK = {HEALTHY: 0, SUSPECT: 1, DOWN: 2, FAILED: 3}

#: Seconds a disk stays SUSPECT (ranked below healthy disks by the read
#: router) after a request to it times out without an identified fault.
SUSPECT_COOLDOWN_S = 10.0


class HealthMonitor:
    def __init__(self, env: "Environment", disk_count: int) -> None:
        if disk_count < 1:
            raise ValueError(f"disk_count must be >= 1, got {disk_count}")
        self.env = env
        self.disk_count = disk_count
        self._slow = [0] * disk_count
        self._down = [0] * disk_count
        self._failed = [False] * disk_count
        self._suspect_until = [-math.inf] * disk_count
        #: Optional :class:`~repro.telemetry.trace.TraceRecorder`.
        self.trace: "TraceRecorder | None" = None
        self._on_failed: list[typing.Callable[[int], None]] = []
        self._on_outage: list[typing.Callable[[int], None]] = []

    def reset_stats(self) -> None:
        """Health is live state, not a statistic: nothing to zero."""

    # ------------------------------------------------------------------
    # State queries (used by the read router)
    # ------------------------------------------------------------------
    def state(self, disk: int) -> str:
        if self._failed[disk]:
            return FAILED
        if self._down[disk] > 0:
            return DOWN
        if self._slow[disk] > 0 or self.env.now <= self._suspect_until[disk]:
            return SUSPECT
        return HEALTHY

    def rank(self, disk: int) -> int:
        """Routing rank: 0 healthy, higher is worse."""
        return _RANK[self.state(disk)]

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def subscribe_failed(self, callback: typing.Callable[[int], None]) -> None:
        """Call *callback(disk)* when a disk fails permanently."""
        self._on_failed.append(callback)

    def subscribe_outage(self, callback: typing.Callable[[int], None]) -> None:
        """Call *callback(index)* when an index transitions into DOWN
        (outage count 0 → 1).  Overlapping outages fire only once."""
        self._on_outage.append(callback)

    def note_timeout(self, disk: int) -> None:
        """A request to *disk* timed out: suspect it for the cooldown."""
        before = self.state(disk)
        self._suspect_until[disk] = self.env.now + SUSPECT_COOLDOWN_S
        self._note_change(disk, before)

    def fault_applied(self, event: "FaultEvent") -> None:
        disk = event.target
        before = self.state(disk)
        if event.kind == DISK_SLOW:
            self._slow[disk] += 1
        elif event.kind == DISK_OUTAGE:
            self._down[disk] += 1
            if self._down[disk] == 1:
                self._note_change(disk, before)
                for callback in self._on_outage:
                    callback(disk)
                return
        elif event.kind == DISK_FAIL:
            if self._failed[disk]:
                return  # already dead; do not re-trigger rebuild
            self._failed[disk] = True
            self._note_change(disk, before)
            for callback in self._on_failed:
                callback(disk)
            return
        else:
            return
        self._note_change(disk, before)

    def fault_reverted(self, event: "FaultEvent") -> None:
        disk = event.target
        before = self.state(disk)
        if event.kind == DISK_SLOW:
            self._slow[disk] -= 1
        elif event.kind == DISK_OUTAGE:
            self._down[disk] -= 1
        else:
            return
        self._note_change(disk, before)

    def _note_change(self, disk: int, before: str) -> None:
        after = self.state(disk)
        if after != before and self.trace is not None:
            self.trace.record(HEALTH_CHANGE, disk=disk, state=after, was=before)
