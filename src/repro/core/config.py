"""Complete simulation configuration (paper Table 1 plus algorithms).

``SpiffiConfig`` captures every hardware parameter from Table 1 and
every algorithm choice from §5.2 as one immutable value object.  The
defaults are the paper's base configuration: 4 processors × 4 disks,
4 one-hour videos per disk, 512 Kbyte stripes, 2 Mbytes per terminal.
"""

from __future__ import annotations

import dataclasses
import math

from repro.bufferpool.registry import ReplacementSpec
from repro.cpu.costs import CpuParameters
from repro.faults.spec import FaultSpec
from repro.layout.registry import LayoutSpec, replicated_layout_names
from repro.media.access import ACCESS_MODELS
from repro.netsim.bus import NetworkParameters
from repro.prefetch.spec import PrefetchSpec
from repro.proxy.spec import ProxySpec
from repro.replication.spec import ReplicationSpec
from repro import schema
from repro.runnable import register_runnable
from repro.sched.registry import SchedulerSpec
from repro.server.admission import AdmissionSpec
from repro.sharing.spec import SharingSpec
from repro.storage.drive import DriveParameters
from repro.terminal.pauses import PauseModel
from repro.workload.spec import ArrivalSpec

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclasses.dataclass(frozen=True)
class SpiffiConfig:
    #: §8.2 piggybacking is now ``SharingSpec("batch")``.  The retired
    #: field's zero value stays in the canonical form so every existing
    #: config digest and run-cache key stays valid.
    schema_constants = {"piggyback_window_s": 0.0}

    # --- hardware shape -------------------------------------------------
    nodes: int = 4
    disks_per_node: int = 4
    cpu: CpuParameters = dataclasses.field(default_factory=CpuParameters)
    drive: DriveParameters = dataclasses.field(default_factory=DriveParameters)
    network: NetworkParameters = dataclasses.field(default_factory=NetworkParameters)

    # --- memory ---------------------------------------------------------
    server_memory_bytes: int = 4 * GB  # aggregate across nodes
    terminal_memory_bytes: int = 2 * MB

    # --- videos ---------------------------------------------------------
    video_bit_rate_bps: float = 4_000_000.0
    frames_per_second: float = 30.0
    video_length_s: float = 3600.0
    videos_per_disk: int = 4
    #: Ablation: constant per-type frame sizes instead of exponential.
    mpeg_deterministic_sizes: bool = False
    #: §8.1: also store a condensed search copy of every title (for
    #: smooth fast-forward/rewind), covering 1/speedup of the content.
    #: None stores no search versions.
    search_version_speedup: int | None = None

    # --- workload --------------------------------------------------------
    terminals: int = 100
    access_model: str = "zipf"
    zipf_skew: float = 1.0
    pause_model: PauseModel = dataclasses.field(default_factory=PauseModel)
    #: An :class:`~repro.server.admission.AdmissionSpec` naming the
    #: registered admission policy.
    admission: AdmissionSpec = dataclasses.field(default_factory=AdmissionSpec)
    #: Open-system workload.  Closed (the paper's fixed terminal
    #: population) by default: no session generator is built, and runs
    #: are bit-identical to a build without the workload subsystem
    #: (see :mod:`repro.workload`).  With an arrival process named,
    #: ``terminals`` is ignored and sessions arrive, queue, and churn
    #: according to the spec.
    workload: ArrivalSpec = schema.field(
        factory=ArrivalSpec, digest=schema.OMIT_WHEN_DEFAULT
    )

    # --- algorithms -------------------------------------------------------
    stripe_bytes: int = 512 * KB
    #: A :class:`~repro.layout.registry.LayoutSpec` naming the
    #: registered layout.
    layout: LayoutSpec = schema.field(factory=LayoutSpec, digest=schema.AS_NAME)
    #: A :class:`~repro.bufferpool.registry.ReplacementSpec` naming the
    #: registered replacement policy.
    replacement_policy: ReplacementSpec = schema.field(
        factory=ReplacementSpec, digest=schema.AS_NAME
    )
    scheduler: SchedulerSpec = dataclasses.field(default_factory=SchedulerSpec)
    prefetch: PrefetchSpec = dataclasses.field(default_factory=PrefetchSpec)

    # --- fault injection ---------------------------------------------------
    #: Empty by default: no faults, and runs are bit-identical to a
    #: build without the fault subsystem (see :mod:`repro.faults`).
    faults: FaultSpec = schema.field(factory=FaultSpec, digest=schema.OMIT_WHEN_DEFAULT)

    # --- replication & recovery --------------------------------------------
    #: Single copy by default: no replica machinery is built, and runs
    #: are bit-identical to a build without the replication subsystem
    #: (see :mod:`repro.replication`).
    replication: ReplicationSpec = schema.field(
        factory=ReplicationSpec, digest=schema.OMIT_WHEN_DEFAULT
    )

    # --- proxy/edge tier ---------------------------------------------------
    #: Disabled by default: no proxy node is built, and runs are
    #: bit-identical to a build without the proxy subsystem (see
    #: :mod:`repro.proxy`).  When enabled, a prefix-cache proxy sits
    #: between the terminals and this system's server nodes.
    proxy: ProxySpec = schema.field(factory=ProxySpec, digest=schema.OMIT_WHEN_DEFAULT)

    # --- stream sharing ----------------------------------------------------
    #: Inert by default: no sharing runtime is built, and runs are
    #: bit-identical to a build without the sharing subsystem (see
    #: :mod:`repro.sharing`).  Policies batch same-title starts (the
    #: paper's §8.2 piggybacking for closed terminals) and/or chain
    #: later sessions off earlier sessions' buffer pages.
    sharing: SharingSpec = schema.field(factory=SharingSpec, digest=schema.OMIT_WHEN_DEFAULT)

    # --- messaging --------------------------------------------------------
    control_message_bytes: int = 128

    # --- simulation run ----------------------------------------------------
    seed: int = 1
    start_spread_s: float = 30.0  # terminals start at random instants in here
    warmup_grace_s: float = 30.0  # extra settling time before measurement
    measure_s: float = 300.0
    #: Each terminal joins its *first* video at a uniformly random
    #: position within this leading fraction of the video, so a short
    #: measurement window observes terminals spread through their
    #: videos just as a long-running closed system would be.  0 makes
    #: every terminal start its first video from the beginning.
    initial_position_fraction: float = 0.9

    def __post_init__(self) -> None:
        schema.check_types(self)
        if self.proxy.enabled and self.proxy.memory_bytes < self.stripe_bytes:
            raise ValueError(
                f"proxy memory of {self.proxy.memory_bytes} bytes holds no "
                f"{self.stripe_bytes}-byte stripe block"
            )
        if self.replication.factor > 1:
            if self.layout.name not in replicated_layout_names():
                raise ValueError(
                    f"layout {self.layout.name!r} stores a single copy; a "
                    f"replication factor of {self.replication.factor} needs "
                    f"one of {replicated_layout_names()}"
                )
            if self.replication.factor > self.disk_count:
                raise ValueError(
                    f"replication factor {self.replication.factor} exceeds "
                    f"the {self.disk_count} disks available"
                )
        # Scripted permanent failures must leave every block at least
        # one surviving copy (and always at least one surviving disk).
        out_of_range = [
            disk for disk in self.faults.fail_disk_ids
            if disk >= self.disk_count
        ]
        if out_of_range:
            raise ValueError(
                f"fail_disk_ids {out_of_range} out of range for "
                f"{self.disk_count} disks (valid: 0..{self.disk_count - 1})"
            )
        survivors_needed = max(1, self.replication.factor)
        fail_limit = self.disk_count - survivors_needed
        if len(self.faults.fail_disk_ids) > fail_limit:
            raise ValueError(
                f"fault spec permanently fails "
                f"{len(self.faults.fail_disk_ids)} of {self.disk_count} "
                f"disks, but at most {fail_limit} may fail: replication "
                f"factor {self.replication.factor} needs "
                f"{survivors_needed} surviving disk(s) to keep blocks "
                f"readable"
            )
        # Node-level faults (whole-server outages) are a cluster
        # concept: they live on ClusterConfig.faults, where the cluster
        # validates them against its member count.
        if self.faults.fail_node_ids:
            raise ValueError(
                "fail_node_ids is a cluster-level fault; put it on "
                "ClusterConfig.faults (see repro.cluster), not on a "
                "single node's SpiffiConfig"
            )
        ACCESS_MODELS.lookup(self.access_model)
        if self.nodes < 1 or self.disks_per_node < 1:
            raise ValueError("need at least one node and one disk per node")
        if self.terminals < 1:
            raise ValueError(f"need at least one terminal, got {self.terminals}")
        if self.stripe_bytes <= 0:
            raise ValueError(f"stripe size must be positive, got {self.stripe_bytes}")
        if self.terminal_memory_bytes < 2 * self.stripe_bytes:
            raise ValueError(
                "terminal memory must hold at least two stripe blocks "
                f"({self.terminal_memory_bytes} < 2*{self.stripe_bytes})"
            )
        if self.pages_per_node < 2:
            raise ValueError(
                f"server memory of {self.server_memory_bytes} bytes gives "
                f"{self.pages_per_node} pages/node; need at least 2"
            )
        if self.videos_per_disk < 1:
            raise ValueError(f"need >= 1 video per disk, got {self.videos_per_disk}")
        for name in ("video_bit_rate_bps", "frames_per_second", "video_length_s", "measure_s"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    # --- derived quantities --------------------------------------------
    @property
    def disk_count(self) -> int:
        return self.nodes * self.disks_per_node

    @property
    def video_count(self) -> int:
        return self.videos_per_disk * self.disk_count

    @property
    def replication_factor(self) -> int:
        """Copies stored of every block (1 = unreplicated)."""
        return self.replication.factor

    @property
    def pages_per_node(self) -> int:
        return (self.server_memory_bytes // self.nodes) // self.stripe_bytes

    @property
    def terminal_slots(self) -> int:
        return self.terminal_memory_bytes // self.stripe_bytes

    @property
    def warmup_s(self) -> float:
        return self.start_spread_s + self.warmup_grace_s

    @property
    def total_sim_time_s(self) -> float:
        return self.warmup_s + self.measure_s

    def replace(self, **changes) -> "SpiffiConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary for reports."""
        text = (
            f"{self.nodes}x{self.disks_per_node} disks, "
            f"{self.video_count} videos, {self.terminals} terminals, "
            f"stripe {self.stripe_bytes // KB}KB, "
            f"mem {self.server_memory_bytes // MB}MB, "
            f"{self.scheduler.label()}, {self.replacement_policy.name}, "
            f"{self.prefetch.label()}, {self.layout.name}"
        )
        if self.proxy.enabled:
            text += f", {self.proxy.label()}"
        return text


def _run_spiffi_config(config: SpiffiConfig):
    # Lazy: repro.core.system imports this module, so the system class
    # can only be resolved at call time.
    from repro.core.system import SpiffiSystem
    from repro.telemetry.runstats import execute_timed

    return execute_timed(SpiffiSystem, config)


# Registered here — in the module that *defines* the class — so any
# interpreter that can unpickle a SpiffiConfig (e.g. a process-pool
# worker receiving a RunRequest) has the entry as an import side effect.
register_runnable(
    SpiffiConfig,
    kind="system",
    run=_run_spiffi_config,
    cache_dict=schema.canonical_form,
)
