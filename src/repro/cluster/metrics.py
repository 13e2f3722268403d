"""Cluster-wide :class:`~repro.core.metrics.RunMetrics` aggregation.

The cluster reuses the single-run metrics schema — the experiment
machinery, SLO checks, and report tables all read ``RunMetrics`` — and
fills it by aggregating across members exactly the way
:func:`repro.core.metrics.collect_metrics` reads one system: counters
sum, utilizations average over devices, latency means are
count-weighted, maxima take the max.  Session and startup-QoS numbers
come from the cluster's own front door (the session generator and the
shared :class:`~repro.workload.qos.QosMonitor`), which see every
customer regardless of the member that served them.

Caveats (documented, deliberate): the network columns sum the
per-member bus figures plus the interconnect, so the "peak" is the sum
of per-bus peaks (an upper bound — members peak at different
instants); the admission queue-length max is the largest single-member
queue, not the instantaneous cluster-wide sum.

Multi-node runs additionally carry a ``per_node`` breakdown — one
mapping per member (routed sessions, queue depth, disk utilization,
rebuild traffic, availability) — as a diagnostic view; it is excluded
from digests and equality, so the aggregates stay bit-identical whether
or not anyone reads it.

The degenerate 1-node closed cluster bypasses aggregation entirely and
returns ``collect_metrics`` of its one member verbatim — that is what
keeps it bit-identical to the standalone system.
"""

from __future__ import annotations

import typing

from repro.core.metrics import RunMetrics, collect_metrics

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.system import SpiffiCluster


def collect_cluster_metrics(
    cluster: "SpiffiCluster", measure_s: float
) -> RunMetrics:
    """Read the post-measurement statistics out of a finished cluster."""
    members = cluster.members
    if len(members) == 1 and cluster.workload is None:
        return collect_metrics(members[0], measure_s)

    terminals = [t for member in members for t in member.terminals]
    server_nodes = [node for member in members for node in member.nodes]
    pools = [node.pool for node in server_nodes]
    drives = [drive for node in server_nodes for drive in node.drives]
    prefetchers = [p for node in server_nodes for p in node.prefetchers]
    now = cluster.env.now

    references = sum(pool.stats.references for pool in pools)
    hits = sum(pool.stats.hits for pool in pools)
    inflight = sum(pool.stats.inflight_hits for pool in pools)
    rereferences = sum(pool.stats.rereferences for pool in pools)

    glitch_durations = [t.stats.glitch_durations for t in terminals]
    total_glitch_events = sum(t.count for t in glitch_durations)
    glitch_time = sum(t.mean * t.count for t in glitch_durations)

    response_counts = sum(t.stats.response_time.count for t in terminals)
    response_total = sum(
        t.stats.response_time.mean * t.stats.response_time.count for t in terminals
    )
    response_max = max(
        (t.stats.response_time.maximum for t in terminals if t.stats.response_time.count),
        default=0.0,
    )
    startup_counts = sum(t.stats.startup_latency.count for t in terminals)
    startup_total = sum(
        t.stats.startup_latency.mean * t.stats.startup_latency.count
        for t in terminals
    )
    disk_utils = [drive.busy.utilization(now) for drive in drives]

    admissions = [member.admission for member in members]
    wait_count = sum(a.wait_times.count for a in admissions)
    wait_total = sum(a.wait_times.mean * a.wait_times.count for a in admissions)

    fault_runtimes = [m.faults for m in members if m.faults is not None]
    repl_stats = [
        m.replication.stats for m in members if m.replication is not None
    ]
    rebuild_count = sum(s.rebuild_durations.count for s in repl_stats)
    rebuild_total = sum(
        s.rebuild_durations.mean * s.rebuild_durations.count for s in repl_stats
    )

    share_leaders = share_followers = merged = chain_reads = chain_breaks = 0
    for member in members:
        if member.sharing is not None:
            share_leaders += member.sharing.stats.batches_launched
            share_followers += member.sharing.stats.batch_followers
            merged += member.sharing.stats.merged_sessions
            chain_reads += member.sharing.stats.chain_reads
            chain_breaks += member.sharing.stats.chain_breaks
    shared_streams = share_followers + merged

    sessions = cluster.workload.stats if cluster.workload is not None else None
    qos = cluster.qos
    proxy = cluster.proxy_runtime.stats if cluster.proxy_runtime else None
    cstats = cluster.stats
    manager = cluster.rebuild_manager
    restore_s = 0.0
    if manager is not None and manager.degree_restored_at is not None:
        restore_s = (
            manager.degree_restored_at - cluster.config.faults.fail_nodes_at_s
        )

    per_node = []
    for index, member in enumerate(members):
        node_terminals = member.terminals
        node_drives = [d for node in member.nodes for d in node.drives]
        node_utils = [d.busy.utilization(now) for d in node_drives]
        per_node.append(
            {
                "node": index,
                "routed": sessions.routed[index] if sessions else 0,
                "admissions_queued": member.admission.queued,
                "admission_queue_len_max": member.admission.queue_lengths.maximum,
                "disk_utilization_mean": sum(node_utils) / len(node_utils),
                "blocks_delivered": sum(
                    t.stats.blocks_received for t in node_terminals
                ),
                "glitches": sum(t.stats.glitches for t in node_terminals),
                "available": cluster.node_available(index),
                "rebuild_bytes_in": cstats.rebuild_bytes_in[index],
                "rebuild_bytes_out": cstats.rebuild_bytes_out[index],
            }
        )

    return RunMetrics(
        terminals=len(terminals),
        measure_s=measure_s,
        glitches=sum(t.stats.glitches for t in terminals),
        glitching_terminals=sum(1 for t in terminals if t.stats.glitches),
        mean_glitch_duration_s=(
            glitch_time / total_glitch_events if total_glitch_events else 0.0
        ),
        disk_utilization_mean=sum(disk_utils) / len(disk_utils),
        disk_utilization_min=min(disk_utils),
        disk_utilization_max=max(disk_utils),
        cpu_utilization_mean=(
            sum(node.cpu.utilization() for node in server_nodes) / len(server_nodes)
        ),
        network_peak_bytes_per_s=(
            sum(m.bus.peak_bandwidth for m in members)
            + cluster.interconnect.peak_bandwidth
        ),
        network_mean_bytes_per_s=(
            sum(m.bus.mean_bandwidth() for m in members)
            + cluster.interconnect.mean_bandwidth()
        ),
        buffer_references=references,
        buffer_hit_rate=hits / references if references else 0.0,
        buffer_inflight_hit_rate=inflight / references if references else 0.0,
        rereference_rate=rereferences / references if references else 0.0,
        wasted_prefetches=sum(pool.stats.wasted_prefetches for pool in pools),
        dropped_prefetches=sum(pool.stats.dropped_prefetches for pool in pools),
        allocation_waits=sum(pool.stats.allocation_waits for pool in pools),
        prefetches_issued=sum(p.stats.issued for p in prefetchers),
        prefetches_completed=sum(p.stats.completed for p in prefetchers),
        mean_response_time_s=(
            response_total / response_counts if response_counts else 0.0
        ),
        max_response_time_s=response_max,
        deadline_misses=sum(t.stats.deadline_misses for t in terminals),
        blocks_delivered=sum(t.stats.blocks_received for t in terminals),
        mean_startup_latency_s=(
            startup_total / startup_counts if startup_counts else 0.0
        ),
        videos_completed=sum(t.stats.videos_completed for t in terminals),
        pauses_taken=sum(t.stats.pauses_taken for t in terminals),
        admissions_queued=sum(a.queued for a in admissions),
        admission_mean_wait_s=wait_total / wait_count if wait_count else 0.0,
        fault_glitches=sum(t.stats.fault_glitches for t in terminals),
        fault_events_injected=sum(f.stats.events_injected for f in fault_runtimes),
        fault_retries=sum(f.stats.retries for f in fault_runtimes),
        fault_abandoned_reads=sum(f.stats.abandoned_reads for f in fault_runtimes),
        fault_failed_reads=sum(f.stats.failed_reads for f in fault_runtimes),
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
        admission_queue_len_mean=sum(
            a.queue_lengths.mean(now) for a in admissions
        ),
        admission_queue_len_max=max(a.queue_lengths.maximum for a in admissions),
        failover_reads=sum(s.failover_reads for s in repl_stats),
        remote_replica_reads=sum(s.remote_replica_reads for s in repl_stats),
        rebuild_reads=sum(s.rebuild_reads for s in repl_stats),
        rebuild_blocks=sum(s.rebuild_blocks for s in repl_stats),
        rebuild_io_bytes=sum(s.rebuild_bytes for s in repl_stats),
        rebuilds_completed=sum(s.rebuilds_completed for s in repl_stats),
        mean_time_to_rebuild_s=(
            rebuild_total / rebuild_count if rebuild_count else 0.0
        ),
        proxy_requests=proxy.requests if proxy else 0,
        proxy_hits=proxy.hits if proxy else 0,
        proxy_misses=proxy.misses if proxy else 0,
        proxy_served_bytes=proxy.served_bytes if proxy else 0,
        proxy_origin_bytes=proxy.origin_bytes if proxy else 0,
        batches_launched=share_leaders,
        shared_streams=shared_streams,
        merged_sessions=merged,
        chain_reads=chain_reads,
        chain_breaks=chain_breaks,
        sharing_fraction=(
            shared_streams / (share_leaders + shared_streams)
            if share_leaders + shared_streams
            else 0.0
        ),
        failed_over_sessions=sessions.failed_over if sessions else 0,
        lost_sessions=sessions.lost if sessions else 0,
        spilled_sessions=sessions.spilled if sessions else 0,
        node_titles_rebuilt=cstats.titles_rebuilt,
        node_titles_unrecoverable=cstats.titles_unrecoverable,
        node_rebuild_bytes=cstats.rebuild_bytes,
        replication_restore_s=restore_s,
        rejoin_resyncs=cstats.rejoin_resyncs,
        rejoin_resync_bytes=cstats.rejoin_resync_bytes,
        per_node=tuple(per_node),
    )
