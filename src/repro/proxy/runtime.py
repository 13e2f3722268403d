"""The proxy tier at run time: a prefix cache in front of the origin.

One :class:`ProxyRuntime` sits between the terminals and the origin
server(s).  It owns its own :class:`~repro.bufferpool.pool.BufferPool`
(budgeted by ``ProxySpec.memory_bytes``, managed by the spec's
``ReplacementSpec``) and is stocked at construction with the hottest
prefix blocks under the budget — a pure function of the config
(popularity weights are RNG-free and the pre-load creates no
simulation events), so determinism is untouched.

Per request, only blocks *inside* a title's prefix window ever reach
the proxy; the tail of every stream keeps flowing terminal → origin
directly, modelling the manifest-level split of a real CDN edge:

* **hit** — the block is resident: serve it straight from proxy
  memory over the terminal network (no disk, no origin CPU);
* **miss** — fetch from the origin over the modeled network (one
  control message on the *forward* bus — the cluster interconnect
  when the proxy fronts a cluster — then the origin's full service
  path), install the block, and relay it to the terminal.

Concurrent misses for one block merge onto a single origin fetch via
the pool's in-flight machinery, exactly like the server pools.  The
proxy box itself is assumed not CPU-bound (it does no scheduling or
disk work), so no processor is modeled — its costs are the transfers.
"""

from __future__ import annotations

import typing
from bisect import bisect_right

from repro.bufferpool.pool import INFLIGHT, MISS, BufferPool
from repro.telemetry import trace as trace_events

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.layout.base import Placement
    from repro.media.video import BlockSchedule
    from repro.netsim.bus import NetworkBus
    from repro.proxy.spec import ProxySpec
    from repro.sim.environment import Environment
    from repro.sim.events import Event
    from repro.telemetry.trace import TraceRecorder


def prefix_block_count(schedule: "BlockSchedule", prefix_s: float) -> int:
    """Blocks covering the first *prefix_s* seconds of one title.

    The byte length of the first ``prefix_s * fps`` frames, rounded up
    to whole stripe blocks and capped at the title's block count: the
    blocks whose first frame is one of those frames.
    """
    sequence = schedule.sequence
    frames = min(sequence.frame_count, int(prefix_s * sequence.fps))
    if frames <= 0:
        return 0
    return min(schedule.block_count, bisect_right(schedule.first_frame, frames - 1))


class ProxyStats:
    """Proxy request accounting (hits + misses == requests, always)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Prefix-range block requests that reached the proxy.
        self.requests = 0
        #: Served from proxy memory (joins on an in-flight fill count:
        #: the terminal did not trigger its own origin fetch).
        self.hits = 0
        #: Fetched from the origin (and installed) on demand.
        self.misses = 0
        #: Bytes delivered to terminals straight from proxy memory.
        self.served_bytes = 0
        #: Bytes pulled from the origin on misses (then relayed).
        self.origin_bytes = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class ProxyRuntime:
    """One proxy node: prefix catalog, bufferpool, request service."""

    def __init__(
        self,
        env: "Environment",
        spec: "ProxySpec",
        schedules: typing.Sequence["BlockSchedule"],
        weights: typing.Sequence[float],
        block_size: int,
        forward_bus: "NetworkBus",
        control_message_bytes: int,
    ) -> None:
        if len(schedules) != len(weights):
            raise ValueError(
                f"{len(schedules)} schedules vs {len(weights)} weights"
            )
        capacity = spec.memory_bytes // block_size
        if capacity < 1:
            raise ValueError(
                f"proxy memory of {spec.memory_bytes} bytes holds no "
                f"{block_size}-byte block"
            )
        self.env = env
        self.spec = spec
        self.schedules = list(schedules)
        self.block_size = block_size
        self.forward_bus = forward_bus
        self.control_message_bytes = control_message_bytes
        self.pool = BufferPool(env, capacity, spec.replacement.build())
        #: Per-title prefix depth in blocks; requests past this bypass
        #: the proxy entirely (the origin streams the tail).
        self.prefix_blocks = [
            prefix_block_count(schedule, spec.prefix_s)
            for schedule in self.schedules
        ]
        self.stats = ProxyStats()
        #: Optional structured trace (``proxy.*`` kinds).
        self.trace: "TraceRecorder | None" = None
        self._preload(weights)

    def _preload(self, weights: typing.Sequence[float]) -> None:
        """Stock the pool with the policy's hottest blocks, budget-bound.

        Inserted coldest-first so the hottest block ends up most
        recently touched in the replacement order; everything is
        flagged prefetched, so love-prefetch genuinely protects
        untouched prefixes — the LRU-vs-love-prefetch ablation is real.
        """
        selection: list[tuple[int, int]] = []
        capacity = self.pool.capacity_pages
        for pair in self.spec.build_policy().plan(weights, self.prefix_blocks):
            if len(selection) >= capacity:
                break
            selection.append(pair)
        for video_id, block in reversed(selection):
            size = self.schedules[video_id].block_bytes(block)
            self.pool.insert_resident((video_id, block), size, prefetched=True)
        self.preloaded_pages = len(selection)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def serves(self, video_id: int, block: int) -> bool:
        """Whether *block* of *video_id* is inside the prefix window."""
        return (
            0 <= video_id < len(self.prefix_blocks)
            and block < self.prefix_blocks[video_id]
        )

    def request_block(
        self,
        origin,
        terminal_id: int,
        video_id: int,
        origin_video_id: int,
        block: int,
        size: int,
        placement: "Placement",
        deadline: float,
    ) -> "Event":
        """Serve a prefix block; the event fires on delivery.

        *origin* is the :class:`~repro.core.node.ServerFabric` behind
        the proxy; *video_id* is the proxy's (catalog-global) title id
        while *origin_video_id* is the same title in the origin's local
        numbering (they differ only behind a cluster front door).
        """
        done = self.env.event()
        self.env.process(
            self._service(
                origin, terminal_id, video_id, origin_video_id,
                block, size, placement, deadline, done,
            ),
            name="proxy-svc",
        )
        return done

    def _service(
        self, origin, terminal_id, video_id, origin_video_id,
        block, size, placement, deadline, done,
    ):
        env = self.env
        stats = self.stats
        stats.requests += 1
        key = (video_id, block)
        page, status = yield from self.pool.acquire(
            key, size, terminal_id=terminal_id
        )
        if status == MISS:
            stats.misses += 1
            if self.trace is not None:
                self.trace.record(
                    trace_events.PROXY_MISS,
                    terminal=terminal_id, video=video_id, block=block,
                )
            # Control message proxy → origin, then the origin's full
            # service path.  The origin read must land early enough to
            # leave time for the proxy → terminal relay.
            yield from self.forward_bus.transfer(self.control_message_bytes)
            relay = origin.bus.params.transit_time(size)
            yield origin.node(placement.node).request_block(
                terminal_id=terminal_id,
                video_id=origin_video_id,
                block=block,
                size=size,
                placement=placement,
                deadline=deadline - relay,
            )
            self.pool.finish_io(page)
            stats.origin_bytes += size
            if self.trace is not None:
                self.trace.record(
                    trace_events.PROXY_FILL, video=video_id, block=block, bytes=size
                )
        else:
            if status == INFLIGHT:
                # Merge onto the fill already heading for the origin.
                yield page.io_event
            stats.hits += 1
            stats.served_bytes += size
            if self.trace is not None:
                self.trace.record(
                    trace_events.PROXY_HIT,
                    terminal=terminal_id, video=video_id, block=block,
                )
        # Data hop proxy → terminal on the terminal-side network.
        yield from origin.bus.transfer(size)
        self.pool.unpin(page)
        done.succeed(env.now)
        return None

    def reset_stats(self) -> None:
        self.stats.reset()
        self.pool.reset_stats()


class ProxyView:
    """A fabric-facing handle binding the runtime to one origin.

    Terminals resolve ``fabric.proxy`` once and call ``serves`` /
    ``request_block`` on it; the view supplies the origin fabric and
    translates the origin's local title ids to the proxy's catalog ids
    (identity for the standalone system; the placement's local → global
    map behind a cluster front door).
    """

    __slots__ = ("runtime", "origin", "_to_global")

    def __init__(
        self,
        runtime: ProxyRuntime,
        origin,
        to_global: typing.Sequence[int] | None = None,
    ) -> None:
        self.runtime = runtime
        self.origin = origin
        self._to_global = to_global

    def serves(self, video_id: int, block: int) -> bool:
        if self._to_global is not None:
            video_id = self._to_global[video_id]
        return self.runtime.serves(video_id, block)

    def request_block(
        self, terminal_id, video_id, block, size, placement, deadline
    ) -> "Event":
        global_id = (
            video_id if self._to_global is None else self._to_global[video_id]
        )
        return self.runtime.request_block(
            origin=self.origin,
            terminal_id=terminal_id,
            video_id=global_id,
            origin_video_id=video_id,
            block=block,
            size=size,
            placement=placement,
            deadline=deadline,
        )
