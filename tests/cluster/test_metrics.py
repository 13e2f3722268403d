"""Cluster-wide metrics aggregation invariants."""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, SpiffiCluster, run_cluster
from repro.core.system import run_simulation
from repro.server.admission import AdmissionSpec
from tests.cluster.conftest import open_workload, small_cluster, small_node


class TestAggregation:
    @pytest.fixture(scope="class")
    def run(self):
        cluster = SpiffiCluster(small_cluster())
        metrics = cluster.run()
        return cluster, metrics

    def test_terminal_counters_sum_over_members(self, run):
        cluster, metrics = run
        terminals = [t for m in cluster.members for t in m.terminal_stats]
        assert metrics.terminals == len(terminals)
        assert metrics.blocks_delivered == sum(t.blocks_received for t in terminals)
        assert metrics.videos_completed == sum(t.videos_completed for t in terminals)
        assert metrics.glitches == sum(t.glitches for t in terminals)

    def test_session_accounting_comes_from_the_front_door(self, run):
        cluster, metrics = run
        stats = cluster.workload.stats
        assert metrics.offered_sessions == stats.offered
        assert metrics.admitted_sessions == stats.admitted
        assert metrics.completed_sessions == stats.completed
        assert metrics.arrival_rate_per_s == pytest.approx(
            stats.offered / metrics.measure_s
        )

    def test_utilization_and_bandwidth_are_sane(self, run):
        _, metrics = run
        assert (
            0.0
            <= metrics.disk_utilization_min
            <= metrics.disk_utilization_mean
            <= metrics.disk_utilization_max
            <= 1.0
        )
        assert metrics.network_mean_bytes_per_s > 0
        assert metrics.network_peak_bytes_per_s >= metrics.network_mean_bytes_per_s

    def test_startup_qos_is_cluster_wide(self, run):
        cluster, metrics = run
        assert metrics.startup_p99_s >= metrics.startup_p50_s >= 0.0
        assert metrics.startup_slo_attainment == cluster.qos.slo_attainment


class TestPerNodeBreakdown:
    @pytest.fixture(scope="class")
    def run(self):
        cluster = SpiffiCluster(small_cluster())
        metrics = cluster.run()
        return cluster, metrics

    def test_one_entry_per_member_in_node_order(self, run):
        cluster, metrics = run
        assert len(metrics.per_node) == len(cluster.members)
        assert [entry["node"] for entry in metrics.per_node] == list(
            range(len(cluster.members))
        )

    def test_breakdowns_sum_to_the_aggregates(self, run):
        cluster, metrics = run
        per_node = metrics.per_node
        assert sum(e["routed"] for e in per_node) == sum(
            cluster.workload.stats.routed
        )
        assert (
            sum(e["blocks_delivered"] for e in per_node)
            == metrics.blocks_delivered
        )
        assert sum(e["glitches"] for e in per_node) == metrics.glitches
        assert all(e["available"] for e in per_node)
        assert all(
            0.0 <= e["disk_utilization_mean"] <= 1.0 for e in per_node
        )

    def test_diagnostic_only_never_in_the_digest(self, run):
        _, metrics = run
        assert "per_node" not in metrics.deterministic_dict()
        # ... so the aggregate dict is identical with the field blanked.
        stripped = dataclasses.replace(metrics, per_node=())
        assert stripped.deterministic_dict() == metrics.deterministic_dict()


class TestSingleNodePassthrough:
    def test_closed_one_node_cluster_equals_standalone_run(self):
        node = small_node(terminals=8)
        direct = run_simulation(node)
        clustered = run_cluster(ClusterConfig(node=node))
        assert clustered.deterministic_dict() == direct.deterministic_dict()

    def test_closed_door_reads_its_members_qos_monitor(self):
        cluster = SpiffiCluster(
            ClusterConfig(node=small_node(terminals=8, video_length_s=20.0))
        )
        metrics = cluster.run()
        assert cluster.qos.starts > 0
        assert metrics.startup_slo_attainment == cluster.qos.slo_attainment

    def test_execution_accounting_stamped(self):
        metrics = run_cluster(ClusterConfig(node=small_node(terminals=4)))
        assert metrics.events_processed > 0
        assert metrics.events_per_second > 0
        assert metrics.wall_time_s > 0


class TestRejectionPaths:
    def test_tight_admission_produces_balks_and_reneges(self):
        config = small_cluster(
            node=small_node(admission=AdmissionSpec("fixed", max_streams=2)),
            workload=open_workload(
                rate_per_s=1.0, queue_limit=2, mean_patience_s=2.0
            ),
        )
        cluster = SpiffiCluster(config)
        metrics = cluster.run()
        stats = cluster.workload.stats
        assert stats.balked > 0
        assert stats.reneged > 0
        assert metrics.balked_sessions == stats.balked
        assert metrics.reneged_sessions == stats.reneged
        assert metrics.rejection_rate > 0
