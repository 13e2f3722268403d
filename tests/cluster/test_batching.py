"""Batched admission on cluster members.

Each member runs its own sharing runtime, so only sessions routed to
the same member share a launch window.  The lifecycle is the standalone
server's: a queued session converts into a window join when a window
opens for its title and carries its running patience in with it, and a
joiner whose member dies withdraws and is routed elsewhere.

Runs skip the warmup reset so that every counter is a whole-run total.
"""

from repro.cluster import SpiffiCluster
from repro.faults.spec import FaultSpec
from repro.server.admission import AdmissionSpec
from repro.sharing import SharingSpec
from tests.cluster.conftest import open_workload, small_cluster, small_node

NO_OUTAGE = FaultSpec()
#: Member 1 is down from 30 s to 50 s.
OUTAGE = FaultSpec(fail_node_ids=(1,), fail_nodes_at_s=30.0, node_recover_after_s=20.0)


def batching_cluster(seed: int = 7, faults: FaultSpec = NO_OUTAGE) -> SpiffiCluster:
    member = small_node(
        seed=seed,
        sharing=SharingSpec("batch", window_s=3.0),
        admission=AdmissionSpec("bandwidth", headroom=0.5),
    )
    return SpiffiCluster(
        small_cluster(
            node=member,
            workload=open_workload(rate_per_s=8.0, queue_limit=12),
            faults=faults,
        )
    )


def run_whole(cluster: SpiffiCluster, until: float = 60.0) -> SpiffiCluster:
    cluster.start()
    cluster.env.run(until=until)
    return cluster


class TestWithoutOutage:
    def test_queued_sessions_convert_and_withdraw_on_every_member(self):
        cluster = run_whole(batching_cluster())
        for member in cluster.members:
            assert member.sharing.stats.queue_converts > 0
            assert member.sharing.stats.batch_withdrawn > 0
        # Without an outage nothing fails over, whatever the timers do.
        assert cluster.workload.stats.failed_over == 0

    def test_one_slot_per_batch_on_every_member(self):
        cluster = run_whole(batching_cluster())
        routed = cluster.workload.stats.routed
        for index, member in enumerate(cluster.members):
            # Leaders take a slot; followers ride it.  Both are routed
            # once they launch, converts and withdrawers never.
            followers = member.sharing.stats.batch_followers
            assert member.admission.admitted + followers == routed[index]
            assert followers > 0

    def test_fresh_builds_route_identically(self):
        first = run_whole(batching_cluster()).workload.assignments
        second = run_whole(batching_cluster()).workload.assignments
        assert first and first == second


class TestOutage:
    def test_joiners_of_a_dying_member_withdraw_and_fail_over(self):
        # Seed 11 has joiners in an open window on member 1 when it dies
        # at 30 s; most seeds have none there at that instant.
        cluster = batching_cluster(seed=11, faults=OUTAGE)
        cluster.start()
        cluster.env.run(until=29.999)
        sharing = cluster.members[1].sharing.stats
        withdrawn = sharing.batch_withdrawn
        failed_over = cluster.workload.stats.failed_over
        cluster.env.run(until=30.01)
        withdrawn_at_outage = sharing.batch_withdrawn - withdrawn
        assert withdrawn_at_outage > 0
        # Every withdrawn joiner is re-routed, not dropped.
        assert cluster.workload.stats.failed_over - failed_over >= withdrawn_at_outage
        assert cluster.workload.stats.lost == 0
