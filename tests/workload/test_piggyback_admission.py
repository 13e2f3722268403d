"""Piggybacking x admission interaction.

Closed terminals under the ``batch`` sharing policy (paper §8.2) take
their admission slot *before* they join a launch window, and keep it:
a batch of piggybacked terminals holds one slot per terminal, so a
launch can never burst past a fixed cap and no start is counted (or
admitted) twice.  These tests run systems without the warmup stats
reset so every counter covers the whole run and the invariants can be
checked as exact totals.
"""

from repro import MB, SpiffiConfig, SpiffiSystem, run_simulation
from repro.server.admission import AdmissionSpec
from repro.sharing import SharingSpec


def hot_config(**overrides):
    """Many terminals on few short titles: launch windows fill up."""
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=24,
        videos_per_disk=1,  # 4 titles: concurrent same-title starts
        video_length_s=20.0,
        server_memory_bytes=256 * MB,
        sharing=SharingSpec(policy="batch", window_s=3.0),
        initial_position_fraction=0.0,
        start_spread_s=6.0,
        warmup_grace_s=6.0,
        measure_s=40.0,
        seed=3,
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def run_whole(config, until=60.0):
    """Run without the warmup reset so counters are whole-run totals."""
    system = SpiffiSystem(config)
    system.start()
    system.env.run(until=until)
    return system


def in_window(system):
    """Terminals admitted and waiting in a still-open launch window."""
    return sum(batch.live for batch in system.sharing._batches.values())


class TestNoDoubleCounting:
    def test_batched_sessions_each_counted_once(self):
        system = run_whole(hot_config())
        stats = system.sharing.stats
        # Piggybacking actually engaged (same-title concurrent starts).
        assert stats.batch_followers > 0
        # One admission grant per start: each one has launched, as a
        # batch leader or follower, or waits in an open window.
        assert system.admission.admitted == (
            stats.batches_launched + stats.batch_followers + in_window(system)
        )
        # Uncapped, every terminal holds exactly one slot.
        assert system.admission.active == len(system.terminals)

    def test_piggyback_stats_consistent(self):
        metrics = run_simulation(hot_config())
        assert 0 < metrics.batches_launched < metrics.shared_streams
        assert metrics.merged_sessions == 0
        assert metrics.sharing_fraction == (
            metrics.shared_streams
            / (metrics.batches_launched + metrics.shared_streams)
        )
        assert 0.0 < metrics.sharing_fraction < 1.0


class TestAtomicBatchUnderCap:
    def test_batch_launch_never_exceeds_fixed_cap(self):
        cap = 6
        system = run_whole(
            hot_config(admission=AdmissionSpec("fixed", max_streams=cap))
        )
        admission = system.admission
        # The load genuinely exceeded the cap.
        assert admission.queue_length > 0
        # Slots are held per terminal even through batch launches:
        # every terminal either holds exactly one slot or queues.
        assert admission.active <= cap
        assert admission.active + admission.queue_length == len(system.terminals)

    def test_released_slots_flow_to_queued_sessions(self):
        cap = 4
        system = run_whole(
            hot_config(admission=AdmissionSpec("fixed", max_streams=cap))
        )
        # Completed viewings free slots; queued terminals claim them.
        assert system.admission.wait_times.maximum > 0
        assert system.admission.admitted > cap

    def test_capped_piggyback_run_is_deterministic(self):
        config = hot_config(admission=AdmissionSpec("fixed", max_streams=6))
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.deterministic_dict() == second.deterministic_dict()
        assert first.batches_launched > 0


class TestPiggybackStillBatchesClosedTerminals:
    def test_closed_piggyback_unaffected_by_workload_layer(self):
        """The closed piggyback path (§8.2) must not notice the
        workload machinery."""
        config = SpiffiConfig(
            nodes=2,
            disks_per_node=2,
            terminals=12,
            videos_per_disk=1,
            video_length_s=120.0,
            server_memory_bytes=256 * MB,
            sharing=SharingSpec(policy="batch", window_s=4.0),
            start_spread_s=2.0,
            warmup_grace_s=4.0,
            measure_s=20.0,
            seed=3,
        )
        system = run_whole(config, until=25.0)
        assert system.workload is None
        assert system.sharing.stats.batch_followers > 0
        assert system.admission.admitted >= 12
