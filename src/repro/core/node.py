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
"""

from __future__ import annotations

import typing

from repro.bufferpool.pool import BufferPool
from repro.core.config import SpiffiConfig
from repro.core.metrics import RunMetrics, collect_metrics
from repro.cpu.processor import Processor
from repro.faults.injector import FaultInjector, FaultRuntime
from repro.faults.schedule import build_schedule
from repro.media.access import make_access_model
from repro.media.library import VideoLibrary
from repro.media.mpeg import MpegProfile
from repro.analytic.capacity import StreamParameters
from repro.netsim.bus import NetworkBus
from repro.prefetch.prefetcher import DiskPrefetcher
from repro.proxy.runtime import ProxyRuntime, ProxyView
from repro.replication.health import HealthMonitor
from repro.replication.rebuild import RebuildManager
from repro.replication.runtime import ReplicationRuntime
from repro.server.admission import AdmissionController
from repro.server.node import VideoServerNode
from repro.server.piggyback import PiggybackCoordinator
from repro.sharing.runtime import SharingRuntime
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.rng import RandomSource
from repro.storage.drive import DiskDrive
from repro.storage.geometry import DiskGeometry
from repro.terminal.terminal import Terminal
from repro.workload.generator import SessionGenerator
from repro.workload.qos import QosMonitor

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.trace import TraceRecorder


class ServerFabric(typing.Protocol):  # pragma: no cover - typing helper
    """What a terminal needs to reach the server side."""

    library: VideoLibrary
    layout: object
    bus: NetworkBus
    block_size: int
    control_message_bytes: int

    def node(self, index: int) -> VideoServerNode: ...

    def request_start(self, video_id: int) -> Event | None: ...


class SpiffiNode:
    """One fully wired simulated video-on-demand server.

    Construction builds every component; :meth:`run` executes the
    paper's methodology — staggered starts, warmup until all terminals
    are active, statistics reset, a fixed measurement window, abrupt
    termination — and returns the collected :class:`RunMetrics`.

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
        self.config = config
        self.env = env if env is not None else Environment()
        rng = RandomSource(config.seed)
        self._rng = rng
        video_count = (
            config.video_count if local_videos is None else local_videos
        )
        if video_count < 1:
            raise ValueError(f"need at least one local video, got {video_count}")

        profile = MpegProfile(
            bit_rate_bps=config.video_bit_rate_bps,
            frames_per_second=config.frames_per_second,
            deterministic_sizes=config.mpeg_deterministic_sizes,
        )
        self.library = VideoLibrary(
            video_count,
            config.video_length_s,
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
        self.piggyback = PiggybackCoordinator(self.env, config.piggyback_window_s)
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
            self.nodes.append(
                VideoServerNode(
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
            )

        all_drives = [drive for node in self.nodes for drive in node.drives]

        # Replication runtime exists only above factor 1, so the default
        # spec leaves the terminal/node fast paths intact.
        self.replication: ReplicationRuntime | None = None
        self.rebuild: RebuildManager | None = None
        if config.replication.enabled:
            health = HealthMonitor(
                self.env, config.disk_count, config.replication.suspect_cooldown_s
            )
            self.replication = ReplicationRuntime(
                self.env, config.replication, self.layout, all_drives, health
            )
            for node in self.nodes:
                node.replication = self.replication
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
                bus=self.bus,
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
        self.proxy_runtime: ProxyRuntime | None = None
        self.proxy: ProxyView | None = None
        if config.proxy.enabled:
            self.proxy_runtime = ProxyRuntime(
                self.env,
                config.proxy,
                schedules=[
                    video.schedule(config.stripe_bytes) for video in self.library
                ],
                weights=self.access.model.weights(),
                block_size=config.stripe_bytes,
                forward_bus=self.bus,
                control_message_bytes=config.control_message_bytes,
            )
            self.proxy = ProxyView(self.proxy_runtime, self)

        # Stream sharing exists only when the config names a policy, so
        # the default spec leaves every fast path intact: terminals and
        # the session generator resolve ``self.sharing`` once at
        # construction, and a None adds no events and draws no
        # randomness.  Built before the terminals, which capture the
        # handle; server nodes get the block hook only when the policy
        # chains buffers.
        self.sharing: SharingRuntime | None = None
        if config.sharing.enabled:
            self.sharing = config.sharing.build(self.env)
            if self.sharing.chaining:
                for node in self.nodes:
                    node.sharing = self.sharing

        # Open-system workload: a session generator replaces the fixed
        # terminal population.  Closed (the default) builds the paper's
        # looping terminals and spawns no workload streams at all; a
        # cluster member (closed_terminals=False) builds neither — the
        # cluster's session generator adopts terminals onto the node.
        self.workload: SessionGenerator | None = None
        if config.workload.enabled:
            self.terminals: list[Terminal] = []
            self.workload = SessionGenerator(
                self.env, self, config.workload, rng.spawn("workload")
            )
        elif closed_terminals:
            self.terminals = [
                Terminal(
                    env=self.env,
                    terminal_id=terminal_id,
                    fabric=self,
                    access=self.access,
                    rng=rng.spawn(f"terminal-{terminal_id}"),
                    memory_bytes=config.terminal_memory_bytes,
                    pause_model=config.pause_model,
                    initial_position_fraction=config.initial_position_fraction,
                )
                for terminal_id in range(config.terminals)
            ]
            for terminal in self.terminals:
                terminal.qos = self.qos
        else:
            self.terminals = []
        self._started = False

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
        return self.piggyback.request_start(video_id)

    def request_admission(self) -> Event:
        return self.admission.request_slot()

    def release_admission(self) -> None:
        self.admission.release_slot()

    def fault_attributable(self) -> bool:
        """Whether a glitch starting now should be blamed on a fault."""
        return self.faults is not None and self.faults.attributable()

    def adopt_terminal(self, terminal: Terminal) -> None:
        """Register a session-spawned terminal with the system so its
        statistics are collected and reset with everything else."""
        terminal.qos = self.qos
        self.terminals.append(terminal)

    def enable_fault_tracing(self, capacity: int = 100_000) -> "TraceRecorder":
        """Attach a trace recorder to the fault runtime (faults must be
        configured); returns the recorder for inspection after the run."""
        if self.faults is None:
            raise ValueError("config schedules no faults; nothing to trace")
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder(self.env, capacity=capacity)
        self.faults.trace = recorder
        if self.replication is not None:
            self.replication.trace = recorder
            self.replication.health.trace = recorder
        return recorder

    def enable_proxy_tracing(self, capacity: int = 100_000) -> "TraceRecorder":
        """Attach a trace recorder to the proxy tier (a proxy must be
        configured); returns the recorder for inspection after the run."""
        if self.proxy_runtime is None:
            raise ValueError("config enables no proxy; nothing to trace")
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder(self.env, capacity=capacity)
        self.proxy_runtime.trace = recorder
        return recorder

    def enable_sharing_tracing(self, capacity: int = 100_000) -> "TraceRecorder":
        """Attach a trace recorder to the sharing runtime (a sharing
        policy must be configured); returns the recorder for inspection
        after the run (``batch.*``/``merge.*``/``chain.*`` kinds)."""
        if self.sharing is None:
            raise ValueError("config enables no sharing policy; nothing to trace")
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder(self.env, capacity=capacity)
        self.sharing.trace = recorder
        return recorder

    def enable_session_tracing(self, capacity: int = 100_000) -> "TraceRecorder":
        """Attach a trace recorder to the session generator (an open
        workload must be configured); returns the recorder for
        inspection after the run."""
        if self.workload is None:
            raise ValueError("closed workload; no sessions to trace")
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder(self.env, capacity=capacity)
        self.workload.trace = recorder
        return recorder

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the workload: the arrival process (open system) or
        every terminal at a random instant in the start spread (closed)."""
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        if self.workload is not None:
            self.workload.start()
            return
        if not self.terminals:
            return  # cluster member: the cluster's generator drives load
        start_rng = self._rng.spawn("starts")
        for terminal in self.terminals:
            terminal.start(start_rng.uniform(0.0, self.config.start_spread_s))

    def run(self) -> RunMetrics:
        """Warm up, measure, and collect (the paper's methodology)."""
        config = self.config
        self.start()
        self.env.run(until=config.warmup_s)
        self.reset_stats()
        self.env.run(until=config.warmup_s + config.measure_s)
        return collect_metrics(self, config.measure_s)

    def reset_stats(self) -> None:
        """Begin the measurement window: zero every statistic."""
        for terminal in self.terminals:
            terminal.reset_stats()
        for node in self.nodes:
            node.reset_stats()
            node.pool.reset_stats()
            node.cpu.reset_stats()
            for drive in node.drives:
                drive.reset_stats()
            for prefetcher in node.prefetchers:
                prefetcher.reset_stats()
        self.bus.reset_stats()
        self.piggyback.reset_stats()
        self.admission.reset_stats()
        self.qos.reset()
        if self.workload is not None:
            self.workload.reset_stats()
        if self.faults is not None:
            self.faults.reset_stats()
        if self.replication is not None:
            self.replication.reset_stats()
        if self.proxy_runtime is not None:
            self.proxy_runtime.reset_stats()
        if self.sharing is not None:
            self.sharing.reset_stats()

    # ------------------------------------------------------------------
    # Extra probes used by figures
    # ------------------------------------------------------------------
    def disk_utilizations(self) -> list[float]:
        now = self.env.now
        return [
            drive.busy.utilization(now) for node in self.nodes for drive in node.drives
        ]
