"""Per-disk prefetch queues and worker processes (paper §5.2.3).

Each disk has its own prefetch queue — FIFO for standard prefetching,
deadline-ordered for real-time/delayed prefetching — drained by a fixed
set of prefetch worker processes.  More workers mean more prefetch
requests concurrently in the disk queue, i.e. more aggressive
prefetching.
"""

from __future__ import annotations

import itertools
import typing

from repro.bufferpool.pool import BufferPool
from repro.prefetch.spec import PrefetchSpec
from repro.sim.environment import Environment
from repro.sim.resources import Gate, PriorityStore, Store
from repro.storage.drive import DiskDrive
from repro.storage.request import NO_DEADLINE

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.processor import Processor
    from repro.cpu.costs import CpuParameters

#: Pseudo terminal id carried by prefetch disk requests.
PREFETCH_TERMINAL = -1

_sequence = itertools.count()


class PrefetchOrder(typing.NamedTuple):
    """One queued prefetch: read (video, block) from this disk.

    The order is its own queue entry: tuples compare by ``(deadline,
    seq)``, and the unique ``seq`` breaks deadline ties first come,
    first served, so comparison never reaches the payload.  The
    cylinder is computed from ``byte_offset`` when the read is issued.
    """

    deadline: float  # estimated deadline of the anticipated true request
    seq: int
    key: tuple[int, int]
    byte_offset: int
    size: int


class PrefetchStats:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.scheduled = 0
        self.deduplicated = 0
        self.already_resident = 0
        self.issued = 0
        self.completed = 0


class DiskPrefetcher:
    """Prefetch queue + workers for one disk."""

    def __init__(
        self,
        env: Environment,
        spec: PrefetchSpec,
        drive: DiskDrive,
        pool: BufferPool,
        cpu: "Processor",
        cpu_params: "CpuParameters",
    ) -> None:
        self.env = env
        self.spec = spec
        self.drive = drive
        self.pool = pool
        self.cpu = cpu
        self.cpu_params = cpu_params
        self.stats = PrefetchStats()
        self._pending_keys: set[tuple[int, int]] = set()
        self._arrival = Gate(env)
        #: ``spec.uses_deadlines``, read once per order on the hot path.
        self._by_deadline = spec.uses_deadlines
        if spec.mode == "none":
            self._queue = None
            return
        if self._by_deadline:
            self._queue: Store | PriorityStore | None = PriorityStore(env)
        else:
            self._queue = Store(env)
        for worker in range(spec.processes_per_disk):
            env.process(
                self._worker(),
                name=f"prefetch-{drive.disk_id}-{worker}",
            )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        key: tuple[int, int],
        byte_offset: int,
        deadline: float,
        size_of: typing.Callable[[int], int],
    ) -> bool:
        """Queue a prefetch of *key* ``(video_id, block)`` unless
        disabled, duplicate, or resident.

        The order is built only once the key passes both checks: its
        size is ``size_of(block)``.
        """
        if self._queue is None:
            return False
        if key in self._pending_keys:
            self.stats.deduplicated += 1
            return False
        if self.pool.lookup(key) is not None:
            self.stats.already_resident += 1
            return False
        order = PrefetchOrder(
            deadline, next(_sequence), key, byte_offset, size_of(key[1])
        )
        self.stats.scheduled += 1
        self._pending_keys.add(key)
        self._queue.put(order)
        self._arrival.open()
        return True

    @property
    def queue_depth(self) -> int:
        return 0 if self._queue is None else len(self._queue)

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _worker(self):
        delayed = self.spec.mode == "delayed"
        while True:
            order = yield self._queue.get()
            if delayed:
                order = yield from self._hold_back(order)
            yield from self._fetch(order)

    def _hold_back(self, order: PrefetchOrder):
        """Delay issuing until within the maximum advance prefetch time.

        While holding back, a more urgent prefetch may arrive; when it
        does, swap it for the held one so deadline order is preserved.
        """
        env = self.env
        while True:
            issue_at = order.deadline - self.spec.max_advance_s
            if env.now >= issue_at or order.deadline == NO_DEADLINE:
                return order
            # Sleep until issue time, but wake early if another order
            # arrives — it may be more urgent than the held one.
            yield env.any_of([env.timeout(issue_at - env.now), self._arrival.wait()])
            if len(self._queue) > 0 and self._queue.peek().deadline < order.deadline:
                # Re-queued behind every order of equal deadline.
                self._queue.put(order._replace(seq=next(_sequence)))
                order = yield self._queue.get()

    def _fetch(self, order: PrefetchOrder):
        self._pending_keys.discard(order.key)
        page = self.pool.try_acquire_for_prefetch(order.key, order.size)
        if page is None:
            # Already resident (raced with a real request or another
            # prefetcher) or no memory available without cannibalising
            # another prefetched page: skip this prefetch.
            return
        self.stats.issued += 1
        yield from self.cpu.execute(self.cpu_params.costs.start_io)
        deadline = order.deadline if self._by_deadline else NO_DEADLINE
        request = page.disk_request = self.drive.read(
            order.byte_offset,
            order.size,
            min(deadline, page.deadline_hint),
            True,
            PREFETCH_TERMINAL,
        )
        yield request.done
        if request.failed:
            # The drive died: drop the page so the block is re-read (and
            # failed over) when a terminal really asks for it.
            self.pool.discard_failed(page)
            return
        self.pool.finish_io(page)
        self.pool.unpin(page)
        self.stats.completed += 1

    def reset_stats(self) -> None:
        self.stats.reset()
