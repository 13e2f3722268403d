"""Cross-node failover: scripted outages reroute sessions to replicas.

The scenario throughout: 2 members, node 1 drops 30 simulated seconds
into the run (inside the measurement window) and — unless the test says
otherwise — rejoins 20 seconds later.  Under ``replicated`` placement
every title keeps a surviving host, so sessions migrate and nothing is
lost; under ``partitioned`` placement the dead node's slice of the
catalog has no replica, so its sessions are lost and new arrivals for
those titles balk.
"""

from repro.cluster import PlacementSpec, RouterSpec, SpiffiCluster
from repro.faults.spec import FaultSpec
from tests.cluster.conftest import open_workload, small_cluster

OUTAGE = FaultSpec(
    fail_node_ids=(1,), fail_nodes_at_s=30.0, node_recover_after_s=20.0
)


def failover_cluster(
    placement: str, routing: str, faults: FaultSpec = OUTAGE
) -> SpiffiCluster:
    config = small_cluster(
        placement=PlacementSpec(placement),
        routing=RouterSpec(routing),
        workload=open_workload(rate_per_s=1.0),
        faults=faults,
    )
    return SpiffiCluster(config)


class TestReplicatedFailover:
    def test_outage_migrates_sessions_without_losses(self):
        cluster = failover_cluster("replicated", "least-loaded")
        metrics = cluster.run()
        stats = cluster.workload.stats
        assert cluster.stats.node_outages == 1
        assert cluster.stats.node_recoveries == 1
        assert stats.failed_over > 0
        assert stats.lost == 0
        assert metrics.admitted_sessions == stats.admitted
        # Both members served admissions across the window.
        assert stats.routed[0] > 0 and stats.routed[1] > 0

    def test_member_is_healthy_again_after_recovery(self):
        cluster = failover_cluster("replicated", "least-loaded")
        cluster.run()
        assert cluster.node_available(1)
        assert cluster.health.rank(1) == 0
        # The outage event was re-armed: a fresh, untriggered event.
        assert not cluster.down_event(1).triggered

class TestPartitionedOutage:
    def test_unreplicated_titles_are_lost(self):
        cluster = failover_cluster("partitioned", "locality")
        cluster.run()
        stats = cluster.workload.stats
        # The dead node's slice has no replica: its in-flight sessions
        # are lost, and each loss was preceded by a failover attempt.
        assert stats.lost > 0
        assert stats.failed_over >= stats.lost


class TestPermanentOutage:
    def test_no_recovery_script_leaves_the_node_down(self):
        permanent = FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=30.0)
        cluster = failover_cluster(
            "replicated", "least-loaded", faults=permanent
        )
        cluster.run()
        assert cluster.stats.node_outages == 1
        assert cluster.stats.node_recoveries == 0
        assert not cluster.node_available(1)
        assert cluster.down_event(1).triggered
