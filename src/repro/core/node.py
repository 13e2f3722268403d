"""Assembly of one SPIFFI server node: every component, fully wired.

Historically this class *was* the whole simulation (``SpiffiSystem``).
With the cluster layer (:mod:`repro.cluster`) a node is one member of a
multi-node installation: it can be built onto a shared
:class:`~repro.sim.environment.Environment`, host a placement-assigned
slice of the global catalog (``local_videos``), and skip building the
closed terminal population when a cluster-level session generator owns
the workload.  The defaults reproduce the historical single-system
behaviour bit-for-bit (pinned by the golden-digest tests), and
``SpiffiSystem`` remains an alias in :mod:`repro.core.system`.

Standalone, a node is a :class:`~repro.core.door.FrontDoor` on the
base's one-member defaults: its own sole member, registering every
component it builds, and running, resetting and tracing through the
base.
"""

from __future__ import annotations

import typing

from repro.bufferpool.pool import BufferPool
from repro.core.config import SpiffiConfig
from repro.core.door import FrontDoor
from repro.cpu.processor import Processor
from repro.faults.injector import FaultInjector, FaultRuntime
from repro.faults.schedule import build_schedule
from repro.media.access import make_access_model
from repro.media.library import VideoLibrary
from repro.media.mpeg import MpegProfile
from repro.analytic.capacity import StreamParameters
from repro.netsim.bus import NetworkBus
from repro.prefetch.prefetcher import DiskPrefetcher
from repro.proxy.runtime import ProxyView
from repro.replication.health import HealthMonitor
from repro.replication.rebuild import RebuildManager
from repro.replication.runtime import ReplicationRuntime
from repro.server.admission import AdmissionController
from repro.server.node import VideoServerNode
from repro.sharing.runtime import SharingRuntime
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.rng import RandomSource
from repro.storage.drive import DiskDrive
from repro.storage.geometry import DiskGeometry
from repro.terminal.terminal import Terminal, TerminalStats
from repro.workload.qos import QosMonitor


class ServerFabric(typing.Protocol):  # pragma: no cover - typing helper
    """What a terminal needs to reach the server side."""

    library: VideoLibrary
    layout: object
    bus: NetworkBus
    block_size: int
    control_message_bytes: int

    def node(self, index: int) -> VideoServerNode: ...

    def request_start(self, video_id: int) -> Event | None: ...


class SpiffiNode(FrontDoor):
    """One fully wired simulated video-on-demand server.

    Construction builds and registers every component;
    :meth:`~repro.core.door.FrontDoor.run` executes the paper's
    methodology — staggered starts, warmup until all terminals are
    active, statistics reset, a fixed measurement window, abrupt
    termination — and returns the collected
    :class:`~repro.core.metrics.RunMetrics`.  As a front door it is
    its own sole member, with the one-member defaults.

    Cluster-membership knobs (all default to the historical standalone
    behaviour):

    * *env* — build onto a shared environment instead of a fresh one;
    * *local_videos* — size of this node's local catalog (placement
      slice) instead of ``config.video_count``;
    * *closed_terminals* — with ``False`` (and a closed config) no
      terminal population is built at all; a cluster-level session
      generator adopts terminals onto the node instead.
    """

    def __init__(
        self,
        config: SpiffiConfig,
        *,
        env: Environment | None = None,
        local_videos: int | None = None,
        closed_terminals: bool = True,
    ) -> None:
        super().__init__(config, env if env is not None else Environment())
        #: A standalone server is its own sole member, for the session
        #: door and :func:`~repro.core.metrics.collect_metrics` alike.
        self.members = (self,)
        rng = RandomSource(config.seed)
        self._rng = rng
        video_count = (
            config.video_count if local_videos is None else local_videos
        )
        if video_count < 1:
            raise ValueError(f"need at least one local video, got {video_count}")
        self.catalog_size = video_count

        profile = MpegProfile(
            bit_rate_bps=config.video_bit_rate_bps,
            frames_per_second=config.frames_per_second,
            deterministic_sizes=config.mpeg_deterministic_sizes,
        )
        self.library = VideoLibrary(
            video_count,
            config.video_length_s,
            config.stripe_bytes,
            profile,
            seed=config.seed,
            search_speedup=config.search_version_speedup,
        )
        block_counts = [
            video.sequence.block_count(config.stripe_bytes) for video in self.library
        ]
        # Spawning a child stream is hash-based (no parent-stream state is
        # consumed), so handing every layout a "layout" stream keeps
        # deterministic layouts bit-identical to builds that never drew it.
        self.layout = config.layout.build(
            block_counts,
            config.nodes,
            config.disks_per_node,
            config.stripe_bytes,
            rng.spawn("layout"),
            replication_factor=config.replication.factor,
        )

        self.bus = NetworkBus(self.env, config.network)
        self.block_size = config.stripe_bytes
        self.control_message_bytes = config.control_message_bytes
        stream = StreamParameters(
            bit_rate_bps=config.video_bit_rate_bps,
            block_bytes=config.stripe_bytes,
        )
        disk_capacity = max(
            max(self.layout.disk_used_bytes(d) for d in range(config.disk_count)),
            config.drive.cylinder_bytes,
        )
        self.admission = AdmissionController(
            self.env,
            config.admission.stream_limit(
                config.disk_count, config.drive, stream, disk_capacity
            ),
        )

        # Fault runtime exists only when the config schedules faults, so
        # a default (empty) FaultSpec leaves the node fast path intact.
        self.faults: FaultRuntime | None = None
        if config.faults.enabled:
            self.faults = FaultRuntime(self.env, config.faults)

        self.nodes: list[VideoServerNode] = []
        for node_id in range(config.nodes):
            cpu = Processor(self.env, config.cpu, node_id)
            pool = BufferPool(
                self.env,
                config.pages_per_node,
                config.replacement_policy.build(),
                prefetch_pool_share=config.prefetch.pool_share,
            )
            drives = []
            for disk_in_node in range(config.disks_per_node):
                disk_global = node_id * config.disks_per_node + disk_in_node
                used = self.layout.disk_used_bytes(disk_global)
                geometry = DiskGeometry(
                    config.drive.cylinder_bytes,
                    max(used, config.drive.cylinder_bytes),
                )
                drives.append(
                    DiskDrive(
                        self.env,
                        disk_global,
                        config.drive,
                        geometry,
                        config.scheduler.build(),
                        rng.spawn(f"disk-{disk_global}"),
                    )
                )
            prefetchers = [
                DiskPrefetcher(self.env, config.prefetch, drive, pool, cpu, config.cpu)
                for drive in drives
            ]
            server = VideoServerNode(
                env=self.env,
                node_id=node_id,
                cpu=cpu,
                cpu_params=config.cpu,
                drives=drives,
                pool=pool,
                bus=self.bus,
                library=self.library,
                layout=self.layout,
                block_size=config.stripe_bytes,
                prefetch_spec=config.prefetch,
                prefetchers=prefetchers,
                faults=self.faults,
            )
            self.nodes.append(server)
            self.register(server, pool, cpu, *drives, *prefetchers)

        all_drives = [drive for node in self.nodes for drive in node.drives]

        # Replication runtime exists only above factor 1, so the default
        # spec leaves the terminal/node fast paths intact.
        self.replication: ReplicationRuntime | None = None
        self.rebuild: RebuildManager | None = None
        if config.replication.enabled:
            health = HealthMonitor(self.env, config.disk_count)
            self.replication = ReplicationRuntime(
                self.env, config.replication, self.layout, all_drives, health
            )
            for node in self.nodes:
                node.replication = self.replication
            self.register(self.replication, health)
            if config.replication.rebuild and config.faults.enabled:
                self.rebuild = RebuildManager(
                    self.env, self.replication, self.library, self.block_size
                )

        self.fault_injector: FaultInjector | None = None
        if self.faults is not None:
            schedule = build_schedule(
                config.faults,
                config.disk_count,
                config.total_sim_time_s,
                rng.spawn("faults"),
            )
            self.fault_injector = FaultInjector(
                self.env,
                self.faults,
                schedule,
                drives=all_drives,
                admission=self.admission,
                health=(
                    self.replication.health if self.replication is not None else None
                ),
            )

        self.access = make_access_model(
            config.access_model, video_count, config.zipf_skew
        ).bind(rng.spawn("access"))
        self.qos = QosMonitor(config.workload.startup_slo_s)

        # Proxy tier exists only when the config enables it, so the
        # default spec leaves the terminal fast path intact: terminals
        # resolve ``fabric.proxy`` once at construction and a None adds
        # no events and draws no randomness.  Built before the
        # terminals, which capture the handle.
        self.proxy: ProxyView | None = None
        if config.proxy.enabled:
            self._build_proxy(self.bus)

        # Stream sharing exists only when the config names a policy, so
        # the default spec leaves every fast path intact: terminals and
        # the session generator resolve ``self.sharing`` once at
        # construction, and a None adds no events and draws no
        # randomness.  Built before the terminals, which capture the
        # handle; server nodes get the block hook only when the policy
        # chains buffers.
        self.sharing: SharingRuntime | None = None
        #: The sharing runtime when it batches launches, else None.
        self.batcher: SharingRuntime | None = None
        if config.sharing.enabled:
            self.sharing = config.sharing.build(self.env)
            if self.sharing.batching:
                self.batcher = self.sharing
            if self.sharing.chaining:
                for node in self.nodes:
                    node.sharing = self.sharing

        self.register(self.bus, self.admission, self.qos, self.faults, self.sharing)
        # Open-system workload: a session generator replaces the fixed
        # terminal population.  Closed (the default) builds the paper's
        # looping terminals and spawns no workload streams at all; a
        # cluster member (closed_terminals=False) builds neither — the
        # cluster's session generator adopts terminals onto the node.
        #: The closed terminal population (empty for an open workload).
        self.terminals: list[Terminal] = []
        #: Every adopted terminal's statistics, in adoption order: what
        #: the metrics read, closed terminals and finished sessions alike.
        self.terminal_stats: list[TerminalStats] = []
        if closed_terminals and not config.workload.enabled:
            for terminal_id in range(config.terminals):
                terminal = Terminal(
                    env=self.env,
                    terminal_id=terminal_id,
                    fabric=self,
                    access=self.access,
                    rng=rng.spawn(f"terminal-{terminal_id}"),
                    memory_bytes=config.terminal_memory_bytes,
                    pause_model=config.pause_model,
                    initial_position_fraction=config.initial_position_fraction,
                )
                self.terminals.append(terminal)
                self.adopt_terminal(terminal)
        self._build_workload(rng.spawn("workload"))

    # ------------------------------------------------------------------
    # ServerFabric interface (used by terminals)
    # ------------------------------------------------------------------
    def node(self, index: int) -> VideoServerNode:
        return self.nodes[index]

    def locate_block(self, video_id: int, block: int):
        """Where a terminal should send its read: the primary placement,
        or — with replication configured — the routed replica."""
        if self.replication is not None:
            return self.replication.route(video_id, block)
        return self.layout.locate(video_id, block)

    def request_start(self, video_id: int) -> Event | None:
        """The launch event of a closed terminal's §8.2 start batch, or
        None (start now) when the sharing policy does not batch."""
        if self.batcher is None:
            return None
        return self.batcher.request_start(video_id)

    def request_admission(self) -> Event:
        return self.admission.request_slot()

    def release_admission(self) -> None:
        self.admission.release_slot()

    def fault_attributable(self) -> bool:
        """Whether a glitch starting now should be blamed on a fault."""
        return self.faults is not None and self.faults.attributable()

    def adopt_terminal(self, terminal: Terminal) -> None:
        """Register a terminal's statistics (closed, or spawned by a
        session) so they are collected and reset with everything else.
        Only the record is kept: once a session's processes end, nothing
        refers to its terminal, and refcounting frees it."""
        terminal.qos = self.qos
        self.terminal_stats.append(terminal.stats)
        self.register(terminal.stats)

    def _launch(self) -> None:
        """Start every closed terminal at a random instant in the start
        spread (none for an open workload or a cluster member, whose
        load arrives through a session generator)."""
        start_rng = self._rng.spawn("starts")
        for terminal in self.terminals:
            terminal.start(start_rng.uniform(0.0, self.config.start_spread_s))

    # ------------------------------------------------------------------
    # Extra probes used by figures
    # ------------------------------------------------------------------
    def disk_utilizations(self) -> list[float]:
        now = self.env.now
        return [
            drive.busy.utilization(now) for node in self.nodes for drive in node.drives
        ]
