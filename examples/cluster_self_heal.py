#!/usr/bin/env python
"""A 3-node SPIFFI cluster healing itself through a double outage.

Runs the same staggered double-outage script against a 3-node
chained-declustered cluster twice — once without self-healing, once
with catalog rebuild enabled — then once more with a recovery script to
show a rejoin resync.  Node 1 dies 5 s into measurement; node 2 (the
other host of every title node 1 primaried) follows 8 s later.

Without rebuild the second failure strands every title whose two copies
sat on the doomed pair: their in-flight sessions are lost.  With
rebuild, survivors re-replicate the dead member's catalog through the
interconnect inside the stagger window (paced at the configured
bandwidth cap), so the second outage finds a fresh third copy already
live and strictly fewer sessions are lost.  The trace shows each title
copy going live and the recovered member resyncing before it rejoins.

Run:  python examples/cluster_self_heal.py
"""

from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ClusterConfig,
    FaultSpec,
    MB,
    PlacementSpec,
    RouterSpec,
    SelfHealSpec,
    SpiffiCluster,
    SpiffiConfig,
)

MEMBER = SpiffiConfig(
    nodes=2,
    disks_per_node=2,
    terminals=1,  # ignored: the cluster workload is open
    videos_per_disk=2,
    video_length_s=4.0,
    server_memory_bytes=64 * MB,
    zipf_skew=0.9,
    admission=AdmissionSpec("bandwidth", headroom=0.5),
    start_spread_s=2.0,
    warmup_grace_s=4.0,
    measure_s=24.0,
    seed=7,
)

WORKLOAD = ArrivalSpec(
    process="poisson",
    rate_per_s=6.0,
    mean_view_duration_s=30.0,
    queue_limit=4,
    mean_patience_s=10.0,
    startup_slo_s=10.0,
)

#: Node 1 dies at t=11 s, node 2 at t=19 s.
DOUBLE_OUTAGE = FaultSpec(
    fail_node_ids=(1, 2), fail_nodes_at_s=11.0, fail_node_stagger_s=8.0
)

#: Node 1 dies at t=11 s and is scripted to recover 8 s later; with a
#: resync fraction the rejoin is not a free flip but a paced catch-up.
RECOVERING = FaultSpec(
    fail_node_ids=(1,), fail_nodes_at_s=11.0, node_recover_after_s=8.0
)

HEAL = SelfHealSpec(rebuild=True, rebuild_bandwidth_bytes_per_s=4 * MB)


def run(faults: FaultSpec, self_heal: SelfHealSpec, trace: bool = False):
    cluster = SpiffiCluster(
        ClusterConfig(
            node=MEMBER,
            nodes=3,
            placement=PlacementSpec("chained-declustered", replicas=2),
            routing=RouterSpec("locality"),
            workload=WORKLOAD,
            faults=faults,
            self_heal=self_heal,
        )
    )
    recorder = cluster.enable_tracing() if trace else None
    metrics = cluster.run()
    return cluster, metrics, recorder


def main() -> None:
    _, unhealed, _ = run(DOUBLE_OUTAGE, SelfHealSpec())
    healed_cluster, healed, trace = run(DOUBLE_OUTAGE, HEAL, trace=True)
    _, rejoined, rejoin_trace = run(RECOVERING, HEAL, trace=True)

    print("double outage, no self-heal vs rebuild@4MB/s")
    print(f"{'':28}{'no heal':>10}{'rebuild':>10}")
    for label, field in [
        ("sessions lost", "lost_sessions"),
        ("failovers", "failed_over_sessions"),
        ("balked", "balked_sessions"),
        ("titles re-replicated", "node_titles_rebuilt"),
        ("titles unrecoverable", "node_titles_unrecoverable"),
    ]:
        print(
            f"{label:28}{getattr(unhealed, field):10d}"
            f"{getattr(healed, field):10d}"
        )
    print(
        f"{'replication restored in':28}{'-':>10}"
        f"{healed.replication_restore_s:9.1f}s"
        f"   (moved {healed.node_rebuild_bytes // MB} MB at 4 MB/s)"
    )

    print("\nrebuild trace (outage at t=11 s):")
    for event in trace.events():
        if event.kind.startswith("cluster.rebuild"):
            fields = " ".join(
                f"{key}={value}"
                for key, value in sorted(event.fields.items())
                if key != "node"
            )
            print(
                f"  t={event.time:6.2f}s {event.kind:22} "
                f"node={event.fields['node']} {fields}"
            )

    print("\nrejoin trace (recovery scripted at t=19 s):")
    for event in rejoin_trace.events():
        if event.kind.startswith("cluster.rejoin"):
            fields = " ".join(
                f"{key}={value}"
                for key, value in sorted(event.fields.items())
                if key != "node"
            )
            print(
                f"  t={event.time:6.2f}s {event.kind:22} "
                f"node={event.fields['node']} {fields}"
            )
    print(
        f"\nThe recovered member resynced {rejoined.rejoin_resync_bytes // MB}"
        f" MB of stale catalog before re-entering routing "
        f"({rejoined.rejoin_resyncs} rejoin resync)."
    )


if __name__ == "__main__":
    main()
