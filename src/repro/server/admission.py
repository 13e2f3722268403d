"""Admission control: bounding concurrent streams (paper §4).

"The risk of glitches can be made arbitrarily low by limiting the
maximum number of terminals as much as is desired."  This module makes
that limiting an explicit, pluggable server component.  Policies are
registry-backed (mirroring :class:`repro.layout.registry.LayoutSpec`):
the built-ins are

* ``none`` — admit everyone (the paper's measurement configuration;
  the experimenter controls load by choosing the terminal count);
* ``fixed`` — a hard cap on concurrent streams;
* ``bandwidth`` — reserve each stream's bit rate against a headroom
  fraction of the server's aggregate disk transfer bandwidth;

and third-party policies plug in via :func:`register_admission_policy`
without touching the assembly code in ``repro.core.system``::

    from repro.server.admission import AdmissionSpec, register_admission_policy

    register_admission_policy("ten", lambda spec, *context: 10)
    config = SpiffiConfig(admission=AdmissionSpec("ten"))

Denied terminals queue FIFO and are admitted as streams finish.  The
open-system workload layer (:mod:`repro.workload`) additionally bounds
this queue and lets queued customers *renege* — both built on the
:meth:`AdmissionController.would_queue` / :meth:`~AdmissionController.cancel`
hooks below.
"""

from __future__ import annotations

import dataclasses
import typing
from collections import deque

from repro.registry import Registry
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.stats import Tally, TimeWeighted

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.analytic.capacity import StreamParameters
    from repro.storage.drive import DriveParameters

#: ``limit(spec, disks, drive, stream, disk_capacity_bytes) -> int | None``
#: — the concurrent-stream cap a policy imposes (None = unlimited).
AdmissionPolicy = typing.Callable[..., typing.Optional[int]]

#: ``register_admission_policy(name, limit)`` makes *name* selectable
#: via ``AdmissionSpec(name)``; *limit* receives the spec itself plus
#: the server context (disk count, :class:`DriveParameters`,
#: :class:`StreamParameters`, and the per-disk capacity in bytes) and
#: returns the concurrent-stream cap, or None for no cap.
ADMISSION_POLICIES: Registry[AdmissionPolicy] = Registry("admission policy")
register_admission_policy = ADMISSION_POLICIES.register
admission_policy_names = ADMISSION_POLICIES.names


@dataclasses.dataclass(frozen=True)
class AdmissionSpec:
    """Which admission policy the server runs, with its parameters."""

    policy: str = "none"
    #: ``fixed``: maximum concurrent streams.
    max_streams: int = 1_000_000
    #: ``bandwidth``: fraction of aggregate disk bandwidth reservable.
    headroom: float = 0.9

    def __post_init__(self) -> None:
        ADMISSION_POLICIES.lookup(self.policy)
        if self.max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {self.max_streams}")
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError(f"headroom must be in (0, 1], got {self.headroom}")

    def stream_limit(
        self,
        disks: int,
        drive: "DriveParameters",
        stream: "StreamParameters",
        disk_capacity_bytes: int,
    ) -> int | None:
        """Concurrent-stream cap implied by the policy (None = no cap)."""
        return ADMISSION_POLICIES.lookup(self.policy)(
            self, disks, drive, stream, disk_capacity_bytes
        )

    def label(self) -> str:
        if self.policy == "fixed":
            return f"fixed({self.max_streams})"
        if self.policy == "bandwidth":
            return f"bandwidth({self.headroom:g})"
        return self.policy


def _bandwidth_limit(spec, disks, drive, stream, disk_capacity_bytes):
    aggregate = disks * drive.transfer_rate_bytes * spec.headroom
    return max(1, int(aggregate / stream.bytes_per_second))


register_admission_policy("none", lambda spec, *context: None)
register_admission_policy("fixed", lambda spec, *context: spec.max_streams)
register_admission_policy("bandwidth", _bandwidth_limit)


class AdmissionController:
    """Grants stream slots, queueing requests beyond the cap FIFO."""

    def __init__(self, env: Environment, limit: int | None) -> None:
        self.env = env
        self.limit = limit
        self.active = 0
        self._waiting: deque[tuple[Event, float]] = deque()
        self.admitted = 0
        self.queued = 0
        self.shed_admissions = 0
        self.wait_times = Tally()
        #: Time-weighted wait-queue length (mean and max over the
        #: measurement window; see ``RunMetrics.admission_queue_len_*``).
        self.queue_lengths = TimeWeighted(env.now)
        # Nested shed requests (one per concurrent disk outage).
        self._shed = 0

    @property
    def would_queue(self) -> bool:
        """Whether a slot requested right now would have to wait."""
        return self._shed > 0 or (
            self.limit is not None and self.active >= self.limit
        )

    def request_slot(self) -> Event:
        """Fires when the stream may start (immediately if room)."""
        event = Event(self.env)
        if self._shed > 0:
            self.queued += 1
            self.shed_admissions += 1
            self._enqueue(event)
        elif self.limit is None or self.active < self.limit:
            self.active += 1
            self.admitted += 1
            self.wait_times.record(0.0)
            event.succeed()
        else:
            self.queued += 1
            self._enqueue(event)
        return event

    def release_slot(self) -> None:
        """A stream finished; hand its slot to the oldest waiter."""
        if self.active <= 0:
            raise ValueError("release_slot() with no active streams")
        if self._waiting and self._shed == 0:
            self._admit_waiter()
        else:
            self.active -= 1

    def cancel(self, event: Event) -> bool:
        """Withdraw a still-waiting slot request (a queued customer
        reneging).  Returns False when *event* is not waiting — already
        admitted, or never queued — in which case nothing changes."""
        for entry in self._waiting:
            if entry[0] is event:
                self._waiting.remove(entry)
                self.queue_lengths.update(self.env.now, len(self._waiting))
                return True
        return False

    def _enqueue(self, event: Event) -> None:
        self._waiting.append((event, self.env.now))
        self.queue_lengths.update(self.env.now, len(self._waiting))

    def _admit_waiter(self) -> None:
        waiter, requested_at = self._waiting.popleft()
        self.queue_lengths.update(self.env.now, len(self._waiting))
        self.admitted += 1
        self.wait_times.record(self.env.now - requested_at)
        waiter.succeed()

    # ------------------------------------------------------------------
    # Load shedding during disk outages (see repro.faults)
    # ------------------------------------------------------------------
    def begin_shed(self) -> None:
        """Stop admitting new streams until :meth:`end_shed`."""
        self._shed += 1

    def end_shed(self) -> None:
        if self._shed <= 0:
            raise ValueError("end_shed() without a matching begin_shed()")
        self._shed -= 1
        if self._shed == 0:
            self._drain_waiters()

    @property
    def shedding(self) -> bool:
        return self._shed > 0

    def _drain_waiters(self) -> None:
        while self._waiting and (self.limit is None or self.active < self.limit):
            self.active += 1
            self._admit_waiter()

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    @property
    def max_wait_s(self) -> float:
        """Longest wait any admitted-from-queue stream experienced."""
        return self.wait_times.maximum if self.wait_times.count else 0.0

    def reset_stats(self) -> None:
        self.admitted = 0
        self.queued = 0
        self.shed_admissions = 0
        self.wait_times.reset()
        self.queue_lengths.reset(self.env.now)
