"""Background rebuild of lost block copies after a permanent disk failure.

When the health monitor reports a disk FAILED, the manager starts one
rebuild process for that disk.  The process walks every block copy the
dead disk held (``layout.copies_on_disk``), reads a surviving copy and
re-writes it onto a deterministically chosen surviving disk — both as
real requests through the disk model, so the rebuild competes with
foreground streams for head time — and updates the runtime's replica
directory so the router serves the relocated copy from then on.

The process paces itself to ``rebuild_bandwidth_bytes_per_s`` of moved
bytes (read + write combined) per failed disk, the knob that trades
time-to-redundancy against foreground glitches.  Rebuild I/O is tagged
``is_prefetch=True`` with no deadline, so deadline-aware schedulers
treat it as background work; the drive model is read-only, so the write
is modelled as a disk access of equal cost at the target offset.
"""

from __future__ import annotations

import typing

from repro.layout.base import Placement
from repro.storage.request import NO_DEADLINE
from repro.telemetry.trace import REBUILD_BLOCK, REBUILD_END, REBUILD_START

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.media.library import VideoLibrary
    from repro.replication.runtime import ReplicationRuntime
    from repro.sim.environment import Environment
    from repro.storage.drive import DiskDrive

#: ``terminal_id`` carried by rebuild disk requests.
REBUILD_TERMINAL = -2


class BandwidthPacer:
    """Paces a copy loop to a byte-rate budget, and makes its disk
    accesses.

    :meth:`access` is the loop's one copy path: a background request
    through the real disk model.  Charge every moved byte as the loop
    goes; :meth:`charge` sleeps whenever the cumulative bytes run ahead
    of ``rate`` × elapsed time since construction.  Shared by the
    per-disk rebuild below and the cluster-level re-replication
    (:mod:`repro.cluster.rebuild`), so both trade time-to-redundancy
    against foreground interference with the same arithmetic.
    """

    __slots__ = ("env", "rate", "started", "moved")

    def __init__(self, env: "Environment", rate_bytes_per_s: float) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError(
                f"pacer rate must be positive, got {rate_bytes_per_s}"
            )
        self.env = env
        self.rate = rate_bytes_per_s
        self.started = env.now
        self.moved = 0

    def charge(self, nbytes: int) -> typing.Generator:
        """Generator (``yield from``): account *nbytes* and pace."""
        self.moved += nbytes
        due = self.started + self.moved / self.rate
        if due > self.env.now:
            yield self.env.timeout(due - self.env.now)
        return None

    def access(self, drive: "DiskDrive", offset: int, size: int) -> typing.Generator:
        """Generator (``yield from``): one background access of *size*
        bytes at *offset* on *drive*; returns whether it succeeded."""
        request = drive.read(offset, size, NO_DEADLINE, True, REBUILD_TERMINAL)
        yield request.done
        return not request.failed


class RebuildManager:
    def __init__(
        self,
        env: "Environment",
        runtime: "ReplicationRuntime",
        library: "VideoLibrary",
        block_size: int,
    ) -> None:
        self.env = env
        self.runtime = runtime
        self.library = library
        self.block_size = block_size
        #: Rebuild processes currently running.
        self.active = 0
        # Bytes re-written per target disk; spreads relocated copies.
        self._placed_bytes = [0] * len(runtime.drives)
        runtime.health.subscribe_failed(self._on_disk_failed)

    def _on_disk_failed(self, disk: int) -> None:
        if not self.runtime.spec.rebuild:
            return
        self.env.process(self._rebuild(disk), name=f"rebuild-{disk}")

    # ------------------------------------------------------------------
    # One disk's rebuild
    # ------------------------------------------------------------------
    def _rebuild(self, disk: int):
        env = self.env
        runtime = self.runtime
        stats = runtime.stats
        layout = runtime.layout
        started = env.now
        self.active += 1
        runtime.record(REBUILD_START, disk=disk)
        # Read + write bytes pace the bandwidth cap.
        pacer = BandwidthPacer(env, runtime.spec.rebuild_bandwidth_bytes_per_s)
        copied = 0
        for video_id, block, replica_index in layout.copies_on_disk(disk):
            placements = runtime.placements(video_id, block)
            if placements[replica_index].disk_global != disk:
                continue  # this copy was already relocated elsewhere
            source = self._pick_source(placements, replica_index)
            if source is None:
                # Every copy is gone; reads of this block fall back to
                # the failover penalty until the end of the run.
                continue
            size = self.library[video_id].schedule(self.block_size).block_bytes(block)
            target_disk = self._pick_target(placements)
            if target_disk is None:
                continue  # no disk can legally hold another copy

            src_drive = runtime.drives[source.disk_global]
            if not (yield from pacer.access(src_drive, source.byte_offset, size)):
                continue  # source died mid-rebuild; copy is lost
            stats.rebuild_reads += 1

            tgt_drive = runtime.drives[target_disk]
            offset = min(
                source.byte_offset, max(0, tgt_drive.geometry.capacity_bytes - size)
            )
            if not (yield from pacer.access(tgt_drive, offset, size)):
                continue

            stats.rebuild_blocks += 1
            stats.rebuild_bytes += 2 * size
            self._placed_bytes[target_disk] += size
            node, disk_in_node = layout.split_disk_index(target_disk)
            runtime.set_override(
                video_id,
                block,
                replica_index,
                Placement(node, disk_in_node, target_disk, offset),
            )
            if runtime.trace is not None:  # skip building fields when untraced
                runtime.record(
                    REBUILD_BLOCK,
                    disk=disk,
                    video=video_id,
                    block=block,
                    target=target_disk,
                )
            copied += 1
            yield from pacer.charge(2 * size)
        duration = env.now - started
        stats.rebuilds_completed += 1
        stats.rebuild_durations.record(duration)
        self.active -= 1
        runtime.record(REBUILD_END, disk=disk, blocks=copied, duration_s=duration)
        return None

    # ------------------------------------------------------------------
    # Deterministic source/target selection
    # ------------------------------------------------------------------
    def _pick_source(
        self, placements: typing.Sequence[Placement], lost_index: int
    ) -> Placement | None:
        """Healthiest surviving copy to read from (None if all lost)."""
        candidates = [
            placement
            for index, placement in enumerate(placements)
            if index != lost_index
            and not self.runtime.drives[placement.disk_global].failed
        ]
        if not candidates:
            return None
        return min(candidates, key=self.runtime._route_key)

    def _pick_target(self, placements: typing.Sequence[Placement]) -> int | None:
        """Surviving disk to host the new copy: must not already hold a
        copy of the block; least rebuilt-bytes first, then disk index."""
        holding = {placement.disk_global for placement in placements}
        candidates = [
            disk
            for disk, drive in enumerate(self.runtime.drives)
            if not drive.failed and disk not in holding
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda disk: (self._placed_bytes[disk], disk))
