"""End-to-end failover behaviour under a permanent disk failure.

The headline contract: with replicas, every read of a dead disk's
blocks is served *intact* from a surviving copy (counted as a failover
read); without replicas the same reads are "served" by error
concealment and the data is lost.
"""

from repro import MB, SpiffiConfig, run_simulation
from repro.core.system import SpiffiSystem
from repro.faults import FaultSpec
from repro.layout.registry import LayoutSpec
from repro.prefetch.spec import PrefetchSpec
from repro.replication.spec import ReplicationSpec
from repro.telemetry import trace as trace_events


def failover_config(layout="mirrored", factor=2, **overrides):
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=20,
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        layout=LayoutSpec(layout),
        replication=ReplicationSpec(factor=factor),
        # Prefetching reroutes around the dead disk itself; disabling it
        # funnels every read through the failover path under test.
        prefetch=PrefetchSpec("none"),
        faults=FaultSpec(
            fail_disk_ids=(0,), fail_at_s=1.0, request_timeout_s=1.0
        ),
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=30.0,
        seed=7,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


class TestFailoverKeepsDataIntact:
    def test_unreplicated_loses_reads(self):
        metrics = run_simulation(failover_config("striped", factor=1))
        assert metrics.fault_failed_reads > 0
        assert metrics.failover_reads == 0

    def test_mirrored_serves_every_read_from_the_replica(self):
        metrics = run_simulation(failover_config("mirrored"))
        assert metrics.failover_reads > 0
        assert metrics.fault_failed_reads == 0
        assert metrics.fault_abandoned_reads == 0
        assert metrics.glitches == 0

    def test_chained_serves_every_read_from_the_replica(self):
        metrics = run_simulation(failover_config("chained"))
        assert metrics.failover_reads > 0
        assert metrics.fault_failed_reads == 0
        assert metrics.fault_abandoned_reads == 0
        assert metrics.glitches == 0

    def test_replication_sustains_delivery(self):
        lone = run_simulation(failover_config("striped", factor=1))
        mirrored = run_simulation(failover_config("mirrored"))
        # Intact delivery = delivered minus reads whose data was lost.
        intact_lone = lone.blocks_delivered - lone.fault_failed_reads
        assert mirrored.blocks_delivered > intact_lone


class TestDeterminism:
    def test_replicated_faulty_run_repeats_bit_identically(self):
        config = failover_config("chained")
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.deterministic_dict() == second.deterministic_dict()


class TestFailoverTracing:
    def test_trace_records_failover_and_health(self):
        system = SpiffiSystem(failover_config("mirrored"))
        recorder = system.enable_tracing()
        system.start()
        system.env.run(until=system.config.total_sim_time_s)
        kinds = {event.kind for event in recorder.events()}
        assert trace_events.FAILOVER_READ in kinds
        assert trace_events.HEALTH_CHANGE in kinds
        failovers = [
            event for event in recorder.events()
            if event.kind == trace_events.FAILOVER_READ
        ]
        # Every failover read fled the failed disk for its mirror.
        assert all(event.fields["from_disk"] == 0 for event in failovers)
        assert all(event.fields["to_disk"] == 2 for event in failovers)
