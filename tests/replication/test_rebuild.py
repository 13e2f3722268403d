"""Background rebuild: counters, directory updates, bandwidth pacing."""

from repro import MB, SpiffiConfig, run_simulation
from repro.core.system import SpiffiSystem
from repro.faults import FaultSpec
from repro.layout.registry import LayoutSpec
from repro.replication.spec import ReplicationSpec
from repro.telemetry import trace as trace_events

FAILED_DISK = 0


def rebuild_config(**overrides):
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=8,
        videos_per_disk=1,
        # Short videos keep the lost-copy set small enough for the
        # rebuild to finish inside the measurement window.
        video_length_s=30.0,
        server_memory_bytes=256 * MB,
        layout=LayoutSpec("chained"),
        replication=ReplicationSpec(
            factor=2, rebuild_bandwidth_bytes_per_s=64 * MB
        ),
        # Fail after measurement starts (warmup ends at 10s) so the
        # rebuild completion is not wiped by the stats reset.
        faults=FaultSpec(
            fail_disk_ids=(FAILED_DISK,), fail_at_s=12.0, request_timeout_s=1.0
        ),
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=60.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def run_system(config):
    system = SpiffiSystem(config)
    recorder = system.enable_tracing()
    system.start()
    system.env.run(until=config.total_sim_time_s)
    return system, recorder


class TestRebuildRestoresRedundancy:
    def test_rebuild_completes_and_counts(self):
        metrics = run_simulation(rebuild_config())
        assert metrics.rebuilds_completed == 1
        assert metrics.rebuild_blocks > 0
        assert metrics.rebuild_reads >= metrics.rebuild_blocks
        assert metrics.rebuild_io_bytes > 0
        assert metrics.mean_time_to_rebuild_s > 0.0

    def test_directory_moves_every_copy_off_the_dead_disk(self):
        system, _ = run_system(rebuild_config())
        runtime = system.replication
        assert runtime.relocated_copies > 0
        layout = system.layout
        for video_id, count in enumerate(layout.video_block_counts):
            for block in range(count):
                disks = [
                    p.disk_global for p in runtime.placements(video_id, block)
                ]
                assert FAILED_DISK not in disks
                assert len(set(disks)) == len(disks)

    def test_relocated_copies_follow_the_layout_inverse(self):
        """Every copy the dead disk held is either relocated or was
        already elsewhere; relocation targets never hold two copies."""
        system, _ = run_system(rebuild_config())
        runtime = system.replication
        for video_id, block, replica_index in system.layout.copies_on_disk(
            FAILED_DISK
        ):
            placement = runtime.placements(video_id, block)[replica_index]
            assert placement.disk_global != FAILED_DISK

    def test_trace_records_rebuild_lifecycle(self):
        _, recorder = run_system(rebuild_config())
        starts = recorder.events(trace_events.REBUILD_START)
        ends = recorder.events(trace_events.REBUILD_END)
        blocks = recorder.events(trace_events.REBUILD_BLOCK)
        assert [event.fields["disk"] for event in starts] == [FAILED_DISK]
        assert [event.fields["disk"] for event in ends] == [FAILED_DISK]
        assert len(blocks) == ends[0].fields["blocks"]
        assert all(
            event.fields["target"] != FAILED_DISK for event in blocks
        )
        assert ends[0].time - starts[0].time > 0.0


class TestRebuildKnobs:
    def test_rebuild_can_be_disabled(self):
        config = rebuild_config(
            replication=ReplicationSpec(factor=2, rebuild=False)
        )
        system = SpiffiSystem(config)
        assert system.rebuild is None
        metrics = run_simulation(config)
        assert metrics.rebuild_blocks == 0
        assert metrics.rebuilds_completed == 0
        # Reads still fail over; redundancy just never comes back.
        assert metrics.failover_reads >= 0
        assert system.replication is not None

    def test_bandwidth_cap_paces_the_rebuild(self):
        """A tighter cap rebuilds strictly less within the same window."""
        slow = run_simulation(
            rebuild_config(
                replication=ReplicationSpec(
                    factor=2, rebuild_bandwidth_bytes_per_s=100_000.0
                )
            )
        )
        fast = run_simulation(rebuild_config())
        assert fast.rebuilds_completed == 1
        assert slow.rebuilds_completed == 0
        assert 0 < slow.rebuild_blocks < fast.rebuild_blocks

    def test_rebuild_deterministic(self):
        config = rebuild_config()
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.deterministic_dict() == second.deterministic_dict()
