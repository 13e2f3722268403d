"""Tests for RunMetrics helpers and collection plumbing."""

import pytest

from repro import MB, SpiffiConfig
from repro.cluster import SpiffiCluster
from repro.core.metrics import collect_metrics
from repro.core.system import SpiffiSystem
from repro.server.admission import AdmissionSpec
from tests.cluster.conftest import open_workload, small_cluster, small_node


@pytest.fixture(scope="module")
def finished_system():
    system = SpiffiSystem(SpiffiConfig(
        nodes=1, disks_per_node=2, terminals=6, videos_per_disk=2,
        video_length_s=60.0, server_memory_bytes=64 * MB,
        start_spread_s=1.0, warmup_grace_s=2.0, measure_s=15.0, seed=3,
    ))
    metrics = system.run()
    return system, metrics


@pytest.fixture(scope="module")
def finished_cluster():
    cluster = SpiffiCluster(small_cluster())
    return cluster, cluster.run()


class TestRunMetrics:
    def test_glitch_free_property(self, finished_system):
        _, metrics = finished_system
        assert metrics.glitch_free == (metrics.glitches == 0)

    def test_network_unit_conversion(self, finished_system):
        _, metrics = finished_system
        assert metrics.network_peak_mbytes_per_s == pytest.approx(
            metrics.network_peak_bytes_per_s / MB
        )

    def test_summary_mentions_key_numbers(self, finished_system):
        _, metrics = finished_system
        summary = metrics.summary()
        assert f"terminals={metrics.terminals}" in summary
        assert f"glitches={metrics.glitches}" in summary

    def test_utilizations_are_fractions(self, finished_system):
        _, metrics = finished_system
        assert 0.0 <= metrics.disk_utilization_min <= metrics.disk_utilization_mean
        assert metrics.disk_utilization_mean <= metrics.disk_utilization_max <= 1.0
        assert 0.0 <= metrics.cpu_utilization_mean <= 1.0

    def test_rates_are_fractions(self, finished_system):
        _, metrics = finished_system
        for rate in (metrics.buffer_hit_rate, metrics.buffer_inflight_hit_rate,
                     metrics.rereference_rate):
            assert 0.0 <= rate <= 1.0

    @pytest.mark.parametrize(
        "finished, recollect",
        [
            ("finished_system", collect_metrics),
            ("finished_cluster", SpiffiCluster.collect_metrics),
        ],
        ids=["system", "cluster"],
    )
    def test_recollection_is_idempotent(self, request, finished, recollect):
        system, metrics = request.getfixturevalue(finished)
        again = recollect(system, metrics.measure_s)
        assert again == metrics
        assert again.per_node == metrics.per_node

    def test_blocks_consistency(self, finished_system):
        _, metrics = finished_system
        # Every delivered block was a buffer reference at some node.
        assert metrics.buffer_references >= metrics.blocks_delivered > 0


class TestPooledMeans:
    """Per-member tallies pool by count, but a sole member's mean is its
    own running mean, bit for bit: ``mean * count / count`` can differ
    from it in the last place."""

    QUEUED = dict(admission=AdmissionSpec("fixed", max_streams=2))

    def test_standalone_wait_is_the_admission_tally_mean(self):
        system = SpiffiSystem(
            small_node(
                **self.QUEUED, workload=open_workload(rate_per_s=2.0), seed=5
            )
        )
        metrics = system.run()
        waits = system.admission.wait_times
        # This run hits the trap: re-weighting moves the last bit.
        assert waits.mean * waits.count / waits.count != waits.mean
        assert metrics.admission_mean_wait_s == waits.mean

    def test_cluster_wait_is_count_weighted_over_members(self):
        cluster = SpiffiCluster(
            small_cluster(
                node=small_node(**self.QUEUED),
                workload=open_workload(rate_per_s=1.0),
            )
        )
        metrics = cluster.run()
        waits = [member.admission.wait_times for member in cluster.members]
        assert all(w.count for w in waits)
        count = sum(w.count for w in waits)
        assert metrics.admission_mean_wait_s == pytest.approx(
            sum(w.mean * w.count for w in waits) / count
        )
