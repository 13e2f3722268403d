"""The disk drive model (Seagate ST15150N parameters from Table 1).

Service time of a read =

* seek — ``settle + factor · √(cylinder distance)`` milliseconds
  (zero when the head is already on-cylinder);
* rotational latency — uniform over one revolution (8.333 ms);
* transfer — bytes / 7.4 Mbyte/s, plus one head-switch settle per
  cylinder boundary crossed mid-transfer;
* all three are skipped except the transfer when the read sequentially
  continues a live read-ahead cache context.

The drive services exactly one request at a time; *which* request comes
next is delegated to a pluggable scheduler (see :mod:`repro.sched`).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.sim.environment import Environment
from repro.sim.events import Timeout
from repro.sim.resources import Gate
from repro.sim.rng import RandomSource
from repro.sim.stats import BusyTracker, Tally, TimeWeighted
from repro.storage.cache import ReadAheadCache
from repro.storage.geometry import DiskGeometry
from repro.storage.request import DiskRequest

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sched.base import DiskScheduler


@dataclasses.dataclass(frozen=True)
class DriveParameters:
    """Mechanical and cache parameters of one drive (Table 1 defaults)."""

    seek_factor_ms: float = 0.283
    settle_time_ms: float = 0.75
    rotation_time_ms: float = 8.333
    transfer_rate_bytes: float = 7.4e6
    cylinder_bytes: int = 1_310_720  # 1.25 Mbytes
    cache_contexts: int = 8
    cache_context_bytes: int = 131_072  # 128 Kbytes

    def seek_time_s(self, distance: int) -> float:
        """Seconds to move the head across *distance* cylinders."""
        if distance < 0:
            raise ValueError(f"seek distance must be >= 0, got {distance}")
        if distance == 0:
            return 0.0
        return (self.settle_time_ms + self.seek_factor_ms * math.sqrt(distance)) / 1000.0

    def transfer_time_s(self, size: int) -> float:
        return size / self.transfer_rate_bytes


class DiskDrive:
    """One simulated drive plus its scheduling queue."""

    def __init__(
        self,
        env: Environment,
        disk_id: int,
        params: DriveParameters,
        geometry: DiskGeometry,
        scheduler: "DiskScheduler",
        rng: RandomSource,
    ) -> None:
        self.env = env
        self.disk_id = disk_id
        self.params = params
        self.geometry = geometry
        self.scheduler = scheduler
        self.rng = rng
        self.cache = ReadAheadCache(params.cache_contexts, params.cache_context_bytes)
        self.head_cylinder = 0
        # Statistics.
        self.busy = BusyTracker(env.now)
        self.queue_length = TimeWeighted(env.now)
        self.service_times = Tally()
        self.seek_distances = Tally()
        self.reads = 0
        self.bytes_read = 0
        self._work = Gate(env)
        # Fault-injection state (see repro.faults); all inert by default.
        self.failed = False
        self._slow_multipliers: list[float] = []
        self._outages = 0
        self._outage_gate = Gate(env)
        env.process(self._run(), name=f"disk-{disk_id}")

    # ------------------------------------------------------------------
    # Request submission
    # ------------------------------------------------------------------
    def submit(self, request: DiskRequest) -> DiskRequest:
        """Queue a read; ``request.done`` fires when it completes."""
        self.scheduler.push(request)
        self.queue_length.update(self.env.now, len(self.scheduler))
        self._work.open()
        return request

    def read(
        self,
        offset: int,
        size: int,
        deadline: float,
        is_prefetch: bool,
        terminal_id: int,
    ) -> DiskRequest:
        """:meth:`submit` a read of *size* bytes at byte *offset*."""
        return self.submit(
            DiskRequest(
                self.env,
                byte_offset=offset,
                size=size,
                cylinder=self.geometry.cylinder_of(offset),
                deadline=deadline,
                is_prefetch=is_prefetch,
                terminal_id=terminal_id,
            )
        )

    # ------------------------------------------------------------------
    # Fault injection (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def add_slowdown(self, multiplier: float) -> None:
        """Stretch every service time by *multiplier* until removed."""
        if multiplier < 1.0:
            raise ValueError(f"slowdown multiplier must be >= 1, got {multiplier}")
        self._slow_multipliers.append(multiplier)

    def remove_slowdown(self, multiplier: float) -> None:
        self._slow_multipliers.remove(multiplier)

    def begin_outage(self) -> None:
        """Stop servicing requests; queued work waits until the outage ends."""
        self._outages += 1

    def end_outage(self) -> None:
        if self._outages <= 0:
            raise ValueError("end_outage() without a matching begin_outage()")
        self._outages -= 1
        if self._outages == 0:
            self._outage_gate.open()

    def fail_permanently(self) -> None:
        """Take the drive offline for good.

        Every queued and future request completes immediately with
        ``failed=True`` so submitters never hang on a dead drive.
        """
        self.failed = True
        self._work.open()
        self._outage_gate.open()

    @property
    def in_outage(self) -> bool:
        return self._outages > 0

    def _fail_queued(self) -> None:
        env = self.env
        while len(self.scheduler) > 0:
            request = self.scheduler.pop(env.now, self.head_cylinder)
            request.fail_read()
        self.queue_length.update(env.now, 0)

    # ------------------------------------------------------------------
    # The drive's service loop
    # ------------------------------------------------------------------
    def _run(self):
        env = self.env
        while True:
            if self.failed:
                self._fail_queued()
                yield self._work.wait()
                continue
            if self._outages > 0:
                yield self._outage_gate.wait()
                continue
            if len(self.scheduler) == 0:
                yield self._work.wait()
                continue
            now = env.now
            request = self.scheduler.pop(now, self.head_cylinder)
            self.queue_length.update(now, len(self.scheduler))
            if request.cancelled:
                # The submitter timed out and re-dispatched; discard.
                request.complete()
                continue
            request.started_at = now
            service = self._service_time(request)
            for multiplier in self._slow_multipliers:
                service *= multiplier
            self.busy.begin(now)
            yield Timeout(env, service)
            self.busy.end(env.now)
            self.reads += 1
            self.bytes_read += request.size
            self.service_times.record(service)
            request.complete()

    def _service_time(self, request: DiskRequest) -> float:
        params = self.params
        old_head = self.head_cylinder
        offset = request.byte_offset
        size = request.size
        sequential = self.cache.access(offset, size)
        first, last = self.geometry.cylinder_span(offset, size)
        transfer = params.transfer_time_s(size)
        transfer += (last - first) * params.settle_time_ms / 1000.0
        # The head ends on the cylinder of the last byte read.
        self.head_cylinder = last
        if sequential:
            # Head already positioned: the read-ahead context continues,
            # so seek and rotational latency are skipped.
            return transfer
        distance = abs(request.cylinder - old_head)
        seek = params.seek_time_s(distance)
        latency = self.rng.uniform(0.0, params.rotation_time_ms / 1000.0)
        self.seek_distances.record(distance)
        return seek + latency + transfer

    def utilization(self) -> float:
        return self.busy.utilization(self.env.now)

    def reset_stats(self) -> None:
        now = self.env.now
        self.busy.reset(now)
        self.queue_length.reset(now)
        self.service_times.reset()
        self.seek_distances.reset()
        self.cache.reset_stats()
        self.reads = 0
        self.bytes_read = 0
