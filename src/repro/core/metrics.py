"""Aggregated simulation outputs for one run."""

from __future__ import annotations

import dataclasses
import typing

from repro import schema

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.system import SpiffiCluster
    from repro.core.node import SpiffiNode

MB = 1024 * 1024


@dataclasses.dataclass(frozen=True)
class RunMetrics:
    """Everything the paper's figures and tables read off a run.

    All values cover only the measurement window (after warmup).
    """

    terminals: int
    measure_s: float
    # Glitch metrics (the primary metric, §7.1).
    glitches: int
    glitching_terminals: int
    mean_glitch_duration_s: float
    # Device utilizations.
    disk_utilization_mean: float
    disk_utilization_min: float
    disk_utilization_max: float
    cpu_utilization_mean: float
    # Network (Figure 18).
    network_peak_bytes_per_s: float
    network_mean_bytes_per_s: float
    # Buffer pool (Figures 11, 12, 16).
    buffer_references: int
    buffer_hit_rate: float
    buffer_inflight_hit_rate: float
    rereference_rate: float
    wasted_prefetches: int
    dropped_prefetches: int
    allocation_waits: int
    # Prefetching.
    prefetches_issued: int
    prefetches_completed: int
    # Terminal experience.
    mean_response_time_s: float
    max_response_time_s: float
    deadline_misses: int
    blocks_delivered: int
    mean_startup_latency_s: float
    videos_completed: int
    pauses_taken: int
    # Admission control (only non-zero when a policy is enforced).
    admissions_queued: int
    admission_mean_wait_s: float
    # Fault injection (all zero unless the config schedules faults;
    # defaulted so cached metrics from earlier schema versions load).
    fault_glitches: int = 0
    fault_events_injected: int = 0
    fault_retries: int = 0
    fault_abandoned_reads: int = 0
    fault_failed_reads: int = 0
    # Open-system workload & QoS (sessions all zero unless an arrival
    # process is configured; startup percentiles cover whichever
    # playback starts fell inside the window, open or closed; defaulted
    # for the same cached-metrics compatibility reason).
    offered_sessions: int = 0
    admitted_sessions: int = 0
    balked_sessions: int = 0
    reneged_sessions: int = 0
    completed_sessions: int = 0
    abandoned_sessions: int = 0
    arrival_rate_per_s: float = 0.0
    startup_p50_s: float = 0.0
    startup_p95_s: float = 0.0
    startup_p99_s: float = 0.0
    startup_slo_attainment: float = 0.0
    admission_max_wait_s: float = 0.0
    admission_queue_len_mean: float = 0.0
    admission_queue_len_max: float = 0.0
    # Replication & recovery (all zero unless replication_factor > 1;
    # defaulted for the same cached-metrics compatibility reason).
    failover_reads: int = 0
    remote_replica_reads: int = 0
    rebuild_reads: int = 0
    rebuild_blocks: int = 0
    rebuild_io_bytes: int = 0
    rebuilds_completed: int = 0
    mean_time_to_rebuild_s: float = 0.0
    # Proxy/edge prefix-cache tier (all zero unless the config enables
    # a proxy).  Each declared ``group`` below is left out of
    # :meth:`deterministic_dict` while all of its fields are zero.
    proxy_requests: int = schema.field(0, group="proxy")
    proxy_hits: int = schema.field(0, group="proxy")
    proxy_misses: int = schema.field(0, group="proxy")
    proxy_served_bytes: int = schema.field(0, group="proxy")
    proxy_origin_bytes: int = schema.field(0, group="proxy")
    # Stream sharing (all zero unless a sharing policy engages).
    # ``shared_streams`` is every session served without a disk stream
    # of its own: batch followers (closed §8.2 starts included).
    # ``merged_sessions`` is always 0 since adaptive merging was
    # retired; pinned metrics digests contain it (see DESIGN.md,
    # *Retired fields*).
    batches_launched: int = schema.field(0, group="sharing")
    shared_streams: int = schema.field(0, group="sharing")
    merged_sessions: int = schema.field(0, group="sharing")
    chain_reads: int = schema.field(0, group="sharing")
    chain_breaks: int = schema.field(0, group="sharing")
    sharing_fraction: float = schema.field(0.0, group="sharing")
    # Cluster failover & self-healing (all zero unless the cluster
    # scripts node outages or enables self_heal).
    failed_over_sessions: int = schema.field(0, group="self_heal")
    lost_sessions: int = schema.field(0, group="self_heal")
    spilled_sessions: int = schema.field(0, group="self_heal")
    node_titles_rebuilt: int = schema.field(0, group="self_heal")
    node_titles_unrecoverable: int = schema.field(0, group="self_heal")
    node_rebuild_bytes: int = schema.field(0, group="self_heal")
    #: Simulated seconds from the first scripted outage to the instant
    #: the last planned re-replication went live (0.0 when rebuild is
    #: off or never finished).
    replication_restore_s: float = schema.field(0.0, group="self_heal")
    rejoin_resyncs: int = schema.field(0, group="self_heal")
    rejoin_resync_bytes: int = schema.field(0, group="self_heal")
    #: Per-member breakdown for multi-node runs: one mapping per node
    #: (routed sessions, queue depth, disk utilization, rebuild traffic
    #: ...).  Diagnostic only — excluded from equality and from
    #: :meth:`deterministic_dict`, so cluster aggregates hash exactly
    #: as before; the aggregate fields above remain the ground truth.
    per_node: tuple = dataclasses.field(default=(), compare=False)
    # Execution accounting (stamped by ``run_simulation`` via
    # ``repro.telemetry.runstats``; zero when a system is run directly).
    # Wall time is host-dependent, so it does not participate in
    # equality: two runs of the same config compare equal.  The event
    # count is deterministic and does participate (see DESIGN.md on
    # why it stays in the metrics digest for now).
    wall_time_s: float = dataclasses.field(default=0.0, compare=False)
    events_processed: int = 0

    def __post_init__(self) -> None:
        # Cached entries round-trip through JSON, which turns the
        # per-node tuple into a list; normalise so cache hits compare
        # (and re-serialise) identically to fresh runs.
        if not isinstance(self.per_node, tuple):
            object.__setattr__(self, "per_node", tuple(self.per_node))

    @property
    def glitch_free(self) -> bool:
        return self.glitches == 0

    @property
    def events_per_second(self) -> float:
        """Kernel throughput: simulator events per host wall second.

        0.0 when execution accounting was not stamped (e.g. a system
        run directly rather than through ``run_simulation``).
        """
        return (
            self.events_processed / self.wall_time_s if self.wall_time_s > 0 else 0.0
        )

    @property
    def scheduling_glitches(self) -> int:
        """Glitches *not* attributed to an injected fault."""
        return self.glitches - self.fault_glitches

    @property
    def network_peak_mbytes_per_s(self) -> float:
        return self.network_peak_bytes_per_s / MB

    @property
    def rejected_sessions(self) -> int:
        """Denied demand: arrivals that balked or reneged."""
        return self.balked_sessions + self.reneged_sessions

    @property
    def rejection_rate(self) -> float:
        """Rejected fraction of offered sessions (0.0 with no arrivals)."""
        return (
            self.rejected_sessions / self.offered_sessions
            if self.offered_sessions
            else 0.0
        )

    @property
    def proxy_hit_rate(self) -> float:
        """Fraction of proxy requests served from proxy memory."""
        return self.proxy_hits / self.proxy_requests if self.proxy_requests else 0.0

    def deterministic_dict(self) -> dict:
        """Every field that takes part in equality (so not the host's
        wall time nor the diagnostic per-node breakdown), for comparing
        runs across executors, job counts, and submission orders.

        Mirroring the config canonical form, a declared metric group
        that is entirely inert (the proxy counters of a proxy-less run,
        the failover/self-heal counters of an outage-free run) is
        omitted, so digests of pre-existing scenarios survive schema
        growth unchanged.
        """
        return schema.canonical_form(self)

    def summary(self) -> str:
        text = (
            f"terminals={self.terminals} glitches={self.glitches} "
            f"disk_util={self.disk_utilization_mean:.2f} "
            f"cpu_util={self.cpu_utilization_mean:.2f} "
            f"hit_rate={self.buffer_hit_rate:.2f} "
            f"net_peak={self.network_peak_mbytes_per_s:.1f}MB/s"
        )
        if self.fault_events_injected or self.fault_glitches:
            text += (
                f" faults={self.fault_events_injected}"
                f" fault_glitches={self.fault_glitches}"
                f" retries={self.fault_retries}"
            )
        if self.offered_sessions:
            text += (
                f" sessions={self.admitted_sessions}/{self.offered_sessions}"
                f" rejected={self.rejection_rate:.2%}"
                f" p99_startup={self.startup_p99_s:.2f}s"
            )
        if self.failover_reads or self.rebuilds_completed:
            text += (
                f" failovers={self.failover_reads}"
                f" rebuilt_blocks={self.rebuild_blocks}"
            )
        if self.proxy_requests:
            text += (
                f" proxy_hit_rate={self.proxy_hit_rate:.2f}"
                f" proxy_served={self.proxy_served_bytes // MB}MB"
            )
        if self.batches_launched or self.shared_streams:
            text += (
                f" shared={self.shared_streams}"
                f" ({self.sharing_fraction:.2f} of launches)"
            )
            if self.chain_reads:
                text += f" chain_reads={self.chain_reads}"
        if self.failed_over_sessions or self.lost_sessions or self.spilled_sessions:
            text += (
                f" failed_over={self.failed_over_sessions}"
                f" lost={self.lost_sessions}"
                f" spilled={self.spilled_sessions}"
            )
        if self.node_titles_rebuilt or self.rejoin_resyncs:
            text += (
                f" titles_rebuilt={self.node_titles_rebuilt}"
                f" restore={self.replication_restore_s:.1f}s"
            )
        return text


def _pooled_mean(tallies) -> float:
    """Count-weighted mean of several tallies (0.0 when all are empty)."""
    count = sum(t.count for t in tallies)
    return sum(t.mean * t.count for t in tallies) / count if count else 0.0


def _member_mean(tallies) -> float:
    """Pool per-member tallies by count, but return a sole member's own
    running mean: ``mean * count / count`` can differ from it in the
    last bit, and a standalone digest must not."""
    return tallies[0].mean if len(tallies) == 1 else _pooled_mean(tallies)


def collect_metrics(
    door: "SpiffiNode | SpiffiCluster", measure_s: float
) -> RunMetrics:
    """Read the post-measurement statistics out of a finished front door.

    Aggregates over ``door.members`` (a standalone server is its own
    sole member): counters sum, utilizations average over devices,
    latency means are count-weighted, maxima take the max.  Sessions,
    startup QoS and the proxy tier belong to the front door, which
    sees every customer whichever member served them.  The admission
    queue-length max is the largest single-member queue, not the
    instantaneous sum over members.
    """
    members = door.members
    terminal_stats = [s for member in members for s in member.terminal_stats]
    servers = [node for member in members for node in member.nodes]
    pools = [node.pool for node in servers]
    drives = [drive for node in servers for drive in node.drives]
    prefetchers = [p for node in servers for p in node.prefetchers]
    admissions = [member.admission for member in members]
    faults = [m.faults.stats for m in members if m.faults is not None]
    repl_stats = [m.replication.stats for m in members if m.replication is not None]
    sharing = [m.sharing.stats for m in members if m.sharing is not None]
    sessions = door.workload.stats if door.workload is not None else None
    proxy = door.proxy_runtime.stats if door.proxy_runtime is not None else None
    qos = door.qos
    now = door.env.now

    references = sum(pool.stats.references for pool in pools)
    hits = sum(pool.stats.hits for pool in pools)
    inflight = sum(pool.stats.inflight_hits for pool in pools)
    rereferences = sum(pool.stats.rereferences for pool in pools)
    response_max = max(
        (t.response_time.maximum for t in terminal_stats if t.response_time.count),
        default=0.0,
    )
    disk_utils = [drive.busy.utilization(now) for drive in drives]
    share_leaders = sum(s.batches_launched for s in sharing)
    shared_streams = sum(s.batch_followers for s in sharing)

    return RunMetrics(
        terminals=len(terminal_stats),
        measure_s=measure_s,
        glitches=sum(t.glitches for t in terminal_stats),
        glitching_terminals=sum(1 for t in terminal_stats if t.glitches),
        mean_glitch_duration_s=_pooled_mean(
            [t.glitch_durations for t in terminal_stats]
        ),
        disk_utilization_mean=sum(disk_utils) / len(disk_utils),
        disk_utilization_min=min(disk_utils),
        disk_utilization_max=max(disk_utils),
        cpu_utilization_mean=(
            sum(node.cpu.utilization() for node in servers) / len(servers)
        ),
        network_peak_bytes_per_s=sum(m.bus.peak_bandwidth for m in members),
        network_mean_bytes_per_s=sum(m.bus.mean_bandwidth() for m in members),
        buffer_references=references,
        buffer_hit_rate=hits / references if references else 0.0,
        buffer_inflight_hit_rate=inflight / references if references else 0.0,
        rereference_rate=rereferences / references if references else 0.0,
        wasted_prefetches=sum(pool.stats.wasted_prefetches for pool in pools),
        dropped_prefetches=sum(pool.stats.dropped_prefetches for pool in pools),
        allocation_waits=sum(pool.stats.allocation_waits for pool in pools),
        prefetches_issued=sum(p.stats.issued for p in prefetchers),
        prefetches_completed=sum(p.stats.completed for p in prefetchers),
        mean_response_time_s=_pooled_mean([t.response_time for t in terminal_stats]),
        max_response_time_s=response_max,
        deadline_misses=sum(t.deadline_misses for t in terminal_stats),
        blocks_delivered=sum(t.blocks_received for t in terminal_stats),
        mean_startup_latency_s=_pooled_mean(
            [t.startup_latency for t in terminal_stats]
        ),
        videos_completed=sum(t.videos_completed for t in terminal_stats),
        pauses_taken=sum(t.pauses_taken for t in terminal_stats),
        admissions_queued=sum(a.queued for a in admissions),
        admission_mean_wait_s=_member_mean([a.wait_times for a in admissions]),
        fault_glitches=sum(t.fault_glitches for t in terminal_stats),
        fault_events_injected=sum(f.events_injected for f in faults),
        fault_retries=sum(f.retries for f in faults),
        fault_abandoned_reads=sum(f.abandoned_reads for f in faults),
        fault_failed_reads=sum(f.failed_reads for f in faults),
        offered_sessions=sessions.offered if sessions else 0,
        admitted_sessions=sessions.admitted if sessions else 0,
        balked_sessions=sessions.balked if sessions else 0,
        reneged_sessions=sessions.reneged if sessions else 0,
        completed_sessions=sessions.completed if sessions else 0,
        abandoned_sessions=sessions.abandoned if sessions else 0,
        arrival_rate_per_s=(sessions.offered / measure_s if sessions else 0.0),
        startup_p50_s=qos.startup_quantile(0.5),
        startup_p95_s=qos.startup_quantile(0.95),
        startup_p99_s=qos.startup_quantile(0.99),
        startup_slo_attainment=qos.slo_attainment,
        admission_max_wait_s=max(a.max_wait_s for a in admissions),
        admission_queue_len_mean=sum(a.queue_lengths.mean(now) for a in admissions),
        admission_queue_len_max=max(a.queue_lengths.maximum for a in admissions),
        failover_reads=sum(s.failover_reads for s in repl_stats),
        remote_replica_reads=sum(s.remote_replica_reads for s in repl_stats),
        rebuild_reads=sum(s.rebuild_reads for s in repl_stats),
        rebuild_blocks=sum(s.rebuild_blocks for s in repl_stats),
        rebuild_io_bytes=sum(s.rebuild_bytes for s in repl_stats),
        rebuilds_completed=sum(s.rebuilds_completed for s in repl_stats),
        mean_time_to_rebuild_s=_member_mean([s.rebuild_durations for s in repl_stats]),
        proxy_requests=proxy.requests if proxy else 0,
        proxy_hits=proxy.hits if proxy else 0,
        proxy_misses=proxy.misses if proxy else 0,
        proxy_served_bytes=proxy.served_bytes if proxy else 0,
        proxy_origin_bytes=proxy.origin_bytes if proxy else 0,
        batches_launched=share_leaders,
        shared_streams=shared_streams,
        chain_reads=sum(s.chain_reads for s in sharing),
        chain_breaks=sum(s.chain_breaks for s in sharing),
        sharing_fraction=(
            shared_streams / (share_leaders + shared_streams)
            if share_leaders + shared_streams
            else 0.0
        ),
        failed_over_sessions=sessions.failed_over if sessions else 0,
        lost_sessions=sessions.lost if sessions else 0,
        spilled_sessions=sessions.spilled if sessions else 0,
    )
