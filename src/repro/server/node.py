"""A video server node: CPU, disks, buffer pool, prefetchers (§5.2).

SPIFFI's decentralized design routes each read request directly from
the terminal to the node and disk holding the block; the node services
it from its buffer pool, merging onto in-flight I/Os where possible,
and responds straight back to the terminal.
"""

from __future__ import annotations

import typing

from repro.bufferpool.pool import INFLIGHT, MISS, BufferPool
from repro.cpu.costs import CpuParameters
from repro.cpu.processor import Processor
from repro.layout.base import Placement
from repro.prefetch.prefetcher import DiskPrefetcher
from repro.prefetch.spec import PrefetchSpec
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.stats import Tally
from repro.storage.drive import DiskDrive
from repro.storage.request import NO_DEADLINE

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultRuntime
    from repro.layout.base import Layout
    from repro.media.library import VideoLibrary
    from repro.netsim.bus import NetworkBus
    from repro.replication.runtime import ReplicationRuntime
    from repro.sharing.runtime import SharingRuntime

#: Seconds a degraded-mode read waits before serving a block no copy
#: could deliver (modelling a replica fetch or error concealment).
FAILOVER_PENALTY_S = 0.5


class NodeStats:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.disk_reads = 0
        self.service_time = Tally()


class VideoServerNode:
    def __init__(
        self,
        env: Environment,
        node_id: int,
        cpu: Processor,
        cpu_params: CpuParameters,
        drives: list[DiskDrive],
        pool: BufferPool,
        bus: "NetworkBus",
        library: "VideoLibrary",
        layout: "Layout",
        block_size: int,
        prefetch_spec: PrefetchSpec,
        prefetchers: list[DiskPrefetcher],
        faults: "FaultRuntime | None" = None,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.cpu = cpu
        self.cpu_params = cpu_params
        self.drives = drives
        self.pool = pool
        self.bus = bus
        self.library = library
        self.layout = layout
        self.block_size = block_size
        self.prefetch_spec = prefetch_spec
        self.prefetchers = prefetchers
        self.faults = faults
        #: Set by system assembly when the config replicates blocks;
        #: None keeps the single-copy read path bit-identical.
        self.replication: "ReplicationRuntime | None" = None
        #: Set by system assembly when the sharing policy chains
        #: buffers; None keeps the reference path bit-identical.
        self.sharing: "SharingRuntime | None" = None
        #: Constant CPU portion of the reply path, precomputed once so
        #: per-request deadline arithmetic stays off the cost tables.
        costs = cpu_params.costs
        self._reply_cpu_s = cpu_params.seconds(costs.send_message + costs.receive_message)
        self._service_name = f"node-{node_id}-svc"
        self.stats = NodeStats()

    # ------------------------------------------------------------------
    # Request entry point (called from terminal fetch processes)
    # ------------------------------------------------------------------
    def request_block(
        self,
        terminal_id: int,
        video_id: int,
        block: int,
        size: int,
        placement: Placement,
        deadline: float,
    ) -> Event:
        """Service a stripe block read; the event fires on delivery."""
        env = self.env
        done = Event(env)
        Process(
            env,
            self._service(terminal_id, video_id, block, size, placement, deadline, done),
            self._service_name,
        )
        return done

    def _reply_allowance(self, size: int) -> float:
        """Time the reply path will add after the disk read completes.

        The disk access must finish this much before the terminal's
        deadline, so it is subtracted when assigning the disk deadline.
        """
        return self._reply_cpu_s + self.bus.transit_time(size)

    def _service(
        self,
        terminal_id: int,
        video_id: int,
        block: int,
        size: int,
        placement: Placement,
        deadline: float,
        done: Event,
    ):
        env = self.env
        costs = self.cpu_params.costs
        arrived = env.now
        self.stats.requests += 1
        yield from self.cpu.execute(costs.receive_message)

        key = (video_id, block)
        disk_deadline = deadline - self._reply_allowance(size)
        page, status = yield from self.pool.acquire(key, size, terminal_id=terminal_id)
        if status == MISS:
            self.stats.disk_reads += 1
            yield from self.cpu.execute(costs.start_io)
            if self.replication is not None:
                yield from self._read_replicated(
                    page, video_id, block, placement, size, disk_deadline, terminal_id
                )
            else:
                drive = self.drives[placement.disk_in_node]
                if self.faults is None:
                    request = page.disk_request = drive.read(
                        placement.byte_offset,
                        size,
                        min(disk_deadline, page.deadline_hint),
                        False,
                        terminal_id,
                    )
                    yield request.done
                else:
                    yield from self._read_degraded(
                        page, placement, size, disk_deadline, terminal_id, drive
                    )
            self.pool.finish_io(page)
        elif status == INFLIGHT:
            # Merge onto the in-flight (usually prefetch) read, lending
            # it this real request's urgency — via the hint if the disk
            # request has not been created yet.
            page.deadline_hint = min(page.deadline_hint, disk_deadline)
            if page.disk_request is not None:
                page.disk_request.tighten_deadline(disk_deadline)
            yield page.io_event

        if self.sharing is not None:
            # Chain registry: pins the predecessor's page / counts the
            # successor's chained read, now that the page is loaded.
            self.sharing.note_block(
                terminal_id, video_id, block, status, page, self.pool
            )
        self._trigger_prefetch(video_id, block, disk_deadline)

        yield from self.cpu.execute(costs.send_message)
        yield from self.bus.transfer(size)
        self.pool.unpin(page)
        now = env.now
        self.stats.service_time.record(now - arrived)
        done.succeed(now)
        return None

    def _read_degraded(self, page, placement, size, disk_deadline, terminal_id, drive):
        """MISS-path disk read with per-request timeout and bounded retry.

        Active only when fault injection is configured.  Each dispatch
        races ``request_timeout_s``; a timed-out request is cancelled and
        re-dispatched up to ``max_retries`` times.  A read that exhausts
        its retries — or whose drive has failed permanently — is *failed
        over*: served after :data:`FAILOVER_PENALTY_S` (modelling a
        replica fetch or error concealment) so the stream degrades
        instead of hanging on dead hardware.
        """
        env = self.env
        spec = self.faults.spec
        attempt = 0
        while True:
            request = page.disk_request = drive.read(
                placement.byte_offset,
                size,
                min(disk_deadline, page.deadline_hint),
                False,
                terminal_id,
            )
            yield env.any_of([request.done, env.timeout(spec.request_timeout_s)])
            if request.done.triggered:
                if not request.failed:
                    return None
                self.faults.note_failed_read(drive.disk_id, terminal_id)
                break
            request.cancel()
            attempt += 1
            if attempt > spec.max_retries:
                self.faults.note_abandoned(drive.disk_id, terminal_id)
                break
            self.faults.note_retry(drive.disk_id, terminal_id, attempt)
        yield env.timeout(FAILOVER_PENALTY_S)
        return None

    # ------------------------------------------------------------------
    # Replica-aware MISS read (replication configured)
    # ------------------------------------------------------------------
    def _read_replicated(
        self, page, video_id, block, placement, size, disk_deadline, terminal_id
    ):
        """MISS-path disk read that fails over across replicas.

        The routed copy (usually the primary) is tried first with the
        full retry budget; on exhaustion — or when its drive is known
        dead — the read moves to the next surviving copy instead of
        sleeping :data:`FAILOVER_PENALTY_S`.  Only when *every* copy is
        unreachable does the abstract penalty remain, as error
        concealment of last resort.  A copy on another node's disk is
        read directly from that drive and shipped over the bus — one
        extra hop, accounted as ``remote_replica_reads``.
        """
        env = self.env
        runtime = self.replication
        spec = self.faults.spec if self.faults is not None else None
        primary_disk = runtime.placements(video_id, block)[0].disk_global
        candidates = runtime.read_candidates(video_id, block, first=placement)
        for candidate in candidates:
            drive = runtime.drives[candidate.disk_global]
            if drive.failed:
                continue  # known dead: skip without burning a timeout
            served = yield from self._attempt_read(
                page, candidate, size, disk_deadline, terminal_id, drive, spec
            )
            if served:
                if candidate.disk_global != primary_disk:
                    # Served from a replica — whether routed away up
                    # front or failed over mid-read.
                    runtime.note_failover(
                        terminal_id, primary_disk, candidate.disk_global
                    )
                if candidate.node != self.node_id:
                    # Ship the block from the remote node to this one.
                    runtime.stats.remote_replica_reads += 1
                    yield from self.bus.transfer(size)
                return None
        # Every copy is dead or timed out: error concealment fallback.
        if self.faults is not None:
            self.faults.note_abandoned(placement.disk_global, terminal_id)
            yield env.timeout(FAILOVER_PENALTY_S)
        return None

    def _attempt_read(
        self, page, placement, size, disk_deadline, terminal_id, drive, spec
    ):
        """One candidate copy: dispatch with timeout/retry; True if read."""
        env = self.env
        attempt = 0
        while True:
            request = page.disk_request = drive.read(
                placement.byte_offset,
                size,
                min(disk_deadline, page.deadline_hint),
                False,
                terminal_id,
            )
            if spec is None:
                yield request.done
                return not request.failed
            yield env.any_of([request.done, env.timeout(spec.request_timeout_s)])
            if request.done.triggered:
                if not request.failed:
                    return True
                self.faults.note_failed_read(drive.disk_id, terminal_id)
                return False
            request.cancel()
            self.replication.health.note_timeout(drive.disk_id)
            attempt += 1
            if attempt > spec.max_retries:
                return False
            self.faults.note_retry(drive.disk_id, terminal_id, attempt)

    # ------------------------------------------------------------------
    # Prefetch triggering (§5.2.3)
    # ------------------------------------------------------------------
    def _trigger_prefetch(self, video_id: int, block: int, base_deadline: float) -> None:
        """Queue background reads of upcoming blocks on the same disk.

        The standard algorithm looks one block ahead; a larger prefetch
        ``depth`` schedules several upcoming blocks of the stream's
        fragment (dedup in the prefetcher makes the steady-state cost
        one new prefetch per reference).
        """
        spec = self.prefetch_spec
        if spec.mode == "none":
            return
        video = self.library[video_id]
        schedule = video.schedule(self.block_size)
        block_bytes = schedule.block_bytes
        layout = self.layout
        replication = self.replication
        with_deadline = spec.uses_deadlines and base_deadline != NO_DEADLINE
        if with_deadline:
            first_frame = schedule.first_frame
            block_frame = first_frame[block]
            fps = video.fps
        previous = block
        for _ in range(spec.depth):
            next_block = layout.next_block_on_same_disk(video_id, previous)
            if next_block is None:
                return
            placement = layout.locate(video_id, next_block)
            if (
                replication is not None
                and replication.health.rank(placement.disk_global) > 0
            ):
                # Primary disk impaired: prefetch where reads will be
                # routed; a copy on another node is that node's problem.
                placement = replication.route(video_id, next_block)
                if placement.node != self.node_id:
                    return
            if with_deadline:
                estimated = base_deadline + (first_frame[next_block] - block_frame) / fps
            else:
                estimated = NO_DEADLINE
            # The prefetcher dedups on the key before it sizes or
            # builds the order; most candidates stop there.
            self.prefetchers[placement.disk_in_node].schedule(
                (video_id, next_block), placement.byte_offset, estimated, block_bytes
            )
            previous = next_block

    def reset_stats(self) -> None:
        self.stats.reset()
