"""Complete simulation configuration (paper Table 1 plus algorithms).

``SpiffiConfig`` captures every hardware parameter from Table 1 and
every algorithm choice from §5.2 as one immutable value object.  The
defaults are the paper's base configuration: 4 processors × 4 disks,
4 one-hour videos per disk, 512 Kbyte stripes, 2 Mbytes per terminal.
"""

from __future__ import annotations

import dataclasses

from repro.bufferpool.registry import ReplacementSpec
from repro.cpu.costs import CpuParameters
from repro.faults.spec import FaultSpec
from repro.layout.registry import (
    LayoutSpec,
    layout_supports_replication,
    replicated_layout_names,
)
from repro.media.access import access_model_names
from repro.netsim.bus import NetworkParameters
from repro.prefetch.spec import PrefetchSpec
from repro.proxy.spec import ProxySpec, proxy_cache_dict
from repro.replication.spec import ReplicationSpec
from repro.runnable import register_runnable
from repro.sched.registry import SchedulerSpec
from repro.server.admission import AdmissionSpec
from repro.sharing.spec import SharingSpec, sharing_cache_dict
from repro.storage.drive import DriveParameters
from repro.terminal.pauses import PauseModel
from repro.workload.spec import ArrivalSpec

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

#: Built-in component names.  Retained for backward compatibility; the
#: authoritative lists live in the component registries and grow as
#: plugins register (see :func:`repro.layout.layout_names`,
#: :func:`repro.bufferpool.replacement_names`,
#: :func:`repro.media.access_model_names`).
LAYOUTS = ("striped", "nonstriped")
REPLACEMENT_POLICIES = ("global_lru", "love_prefetch")
ACCESS_MODELS = ("zipf", "uniform")


@dataclasses.dataclass(frozen=True)
class SpiffiConfig:
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
    piggyback_window_s: float = 0.0
    #: An :class:`~repro.server.admission.AdmissionSpec` naming the
    #: registered admission policy.
    admission: AdmissionSpec = dataclasses.field(default_factory=AdmissionSpec)
    #: Open-system workload.  Closed (the paper's fixed terminal
    #: population) by default: no session generator is built, and runs
    #: are bit-identical to a build without the workload subsystem
    #: (see :mod:`repro.workload`).  With an arrival process named,
    #: ``terminals`` is ignored and sessions arrive, queue, and churn
    #: according to the spec.
    workload: ArrivalSpec = dataclasses.field(default_factory=ArrivalSpec)

    # --- algorithms -------------------------------------------------------
    stripe_bytes: int = 512 * KB
    #: A :class:`~repro.layout.registry.LayoutSpec` naming the
    #: registered layout.
    layout: LayoutSpec = dataclasses.field(default_factory=LayoutSpec)
    #: A :class:`~repro.bufferpool.registry.ReplacementSpec` naming the
    #: registered replacement policy.
    replacement_policy: ReplacementSpec = dataclasses.field(
        default_factory=ReplacementSpec
    )
    scheduler: SchedulerSpec = dataclasses.field(default_factory=SchedulerSpec)
    prefetch: PrefetchSpec = dataclasses.field(default_factory=PrefetchSpec)

    # --- fault injection ---------------------------------------------------
    #: Empty by default: no faults, and runs are bit-identical to a
    #: build without the fault subsystem (see :mod:`repro.faults`).
    faults: FaultSpec = dataclasses.field(default_factory=FaultSpec)

    # --- replication & recovery --------------------------------------------
    #: Single copy by default: no replica machinery is built, and runs
    #: are bit-identical to a build without the replication subsystem
    #: (see :mod:`repro.replication`).
    replication: ReplicationSpec = dataclasses.field(default_factory=ReplicationSpec)

    # --- proxy/edge tier ---------------------------------------------------
    #: Disabled by default: no proxy node is built, and runs are
    #: bit-identical to a build without the proxy subsystem (see
    #: :mod:`repro.proxy`).  When enabled, a prefix-cache proxy sits
    #: between the terminals and this system's server nodes.
    proxy: ProxySpec = dataclasses.field(default_factory=ProxySpec)

    # --- stream sharing ----------------------------------------------------
    #: Inert by default: no sharing runtime is built, and runs are
    #: bit-identical to a build without the sharing subsystem (see
    #: :mod:`repro.sharing`).  Policies batch same-title admissions,
    #: merge trailing streams onto leaders, and/or chain later sessions
    #: off earlier sessions' buffer pages.
    sharing: SharingSpec = dataclasses.field(default_factory=SharingSpec)

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
        # Component choices are uniformly spec-valued; the legacy
        # name-string coercions (deprecated since the registries landed)
        # are gone.  Spec construction validates the name against the
        # live registry.
        if not isinstance(self.layout, LayoutSpec):
            raise TypeError(
                f"layout must be a LayoutSpec (name strings are no longer "
                f"coerced), got {self.layout!r}"
            )
        if not isinstance(self.replacement_policy, ReplacementSpec):
            raise TypeError(
                f"replacement_policy must be a ReplacementSpec (name strings "
                f"are no longer coerced), got {self.replacement_policy!r}"
            )
        if not isinstance(self.admission, AdmissionSpec):
            raise TypeError(
                f"admission must be an AdmissionSpec (policy name strings "
                f"are no longer coerced), got {self.admission!r}"
            )
        if not isinstance(self.workload, ArrivalSpec):
            raise TypeError(
                f"workload must be an ArrivalSpec, got {self.workload!r}"
            )
        if not isinstance(self.faults, FaultSpec):
            raise TypeError(f"faults must be a FaultSpec, got {self.faults!r}")
        if not isinstance(self.replication, ReplicationSpec):
            raise TypeError(
                f"replication must be a ReplicationSpec, got {self.replication!r}"
            )
        if not isinstance(self.proxy, ProxySpec):
            raise TypeError(f"proxy must be a ProxySpec, got {self.proxy!r}")
        if not isinstance(self.sharing, SharingSpec):
            raise TypeError(
                f"sharing must be a SharingSpec, got {self.sharing!r}"
            )
        if self.sharing.batching and self.piggyback_window_s > 0:
            raise ValueError(
                f"sharing policy {self.sharing.policy!r} batches launches "
                f"itself; it cannot combine with piggyback_window_s="
                f"{self.piggyback_window_s:g} (two batching mechanisms "
                f"would fight over the same launch path)"
            )
        if self.proxy.enabled and self.proxy.memory_bytes < self.stripe_bytes:
            raise ValueError(
                f"proxy memory of {self.proxy.memory_bytes} bytes holds no "
                f"{self.stripe_bytes}-byte stripe block"
            )
        if self.replication.factor > 1:
            if not layout_supports_replication(self.layout.name):
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
        if self.access_model not in access_model_names():
            raise ValueError(
                f"unknown access model {self.access_model!r}; "
                f"choose from {access_model_names()}"
            )
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
        if self.measure_s <= 0:
            raise ValueError(f"measure_s must be positive, got {self.measure_s}")

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


# ---------------------------------------------------------------------------
# The runnable registration: how a SpiffiConfig executes and hashes
# ---------------------------------------------------------------------------

def config_cache_dict(config: SpiffiConfig) -> dict:
    """The full configuration as canonical JSON-serializable values.

    Component specs that carry only a name (layout, replacement policy)
    serialize as the bare name string, and default (inert) fault,
    replication, workload, and proxy specs are omitted entirely — so a
    config expressible before those subsystems existed serializes, and
    therefore hashes, exactly as it always did.  Cached runs stay valid
    across every spec-field addition.
    """
    data = dataclasses.asdict(config)
    data["layout"] = config.layout.name
    data["replacement_policy"] = config.replacement_policy.name
    if config.faults == FaultSpec():
        del data["faults"]
    elif config.faults.fail_node_stagger_s == 0.0:
        # Default stagger is omitted so pre-stagger fault configs keep
        # their digests (a node cannot stagger on a single system).
        del data["faults"]["fail_node_stagger_s"]
    if config.replication == ReplicationSpec():
        del data["replication"]
    if config.workload == ArrivalSpec():
        del data["workload"]
    if config.proxy == ProxySpec():
        del data["proxy"]
    else:
        data["proxy"] = proxy_cache_dict(config.proxy)
    if config.sharing == SharingSpec():
        del data["sharing"]
    else:
        data["sharing"] = sharing_cache_dict(config.sharing)
    return data


def _run_spiffi_config(config: SpiffiConfig):
    # Lazy: repro.core.system imports this module, so the executor can
    # only be resolved at call time.
    from repro.core.system import execute_simulation

    return execute_simulation(config)


# Registered here — in the module that *defines* the class — so any
# interpreter that can unpickle a SpiffiConfig (e.g. a process-pool
# worker receiving a RunRequest) has the entry as an import side effect.
register_runnable(
    SpiffiConfig,
    kind="system",
    run=_run_spiffi_config,
    cache_dict=config_cache_dict,
)
