"""Batched admission x the admission controller.

A batch holds exactly ONE admission slot (the leader's): followers
join slot-free and the last member out releases it.  This is the
deliberate divergence from the piggyback discipline (one slot per
session) — so ``AdmissionController.admitted`` counts leaders only
while ``SessionStats.admitted`` counts leaders and followers alike.
These tests run without the warmup stats reset so every counter covers
the whole run and the invariants can be checked as exact totals.
"""

from repro import MB, SpiffiConfig, SpiffiSystem, run_simulation
from repro.server.admission import AdmissionSpec
from repro.sharing import SharingSpec
from repro.workload import ArrivalSpec


def batch_config(**overrides):
    """Heavy arrivals on few titles: launch windows fill up."""
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=1,
        videos_per_disk=1,  # 4 titles: concurrent same-title starts
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        sharing=SharingSpec(policy="batch", window_s=2.0),
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=30.0,
        seed=11,
        workload=ArrivalSpec(
            process="poisson",
            rate_per_s=1.0,
            mean_view_duration_s=20.0,
            queue_limit=16,
            mean_patience_s=8.0,
        ),
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


def run_whole(config, until=40.0):
    """Run without the warmup reset so counters are whole-run totals."""
    system = SpiffiSystem(config)
    system.start()
    system.env.run(until=until)
    return system


class _Silence:
    """Zero-rate profile: swapping it in stops further arrivals."""

    def rate_at(self, t):
        return 0.0


class TestOneSlotPerBatch:
    def test_followers_are_admitted_without_a_slot(self):
        system = run_whole(batch_config())
        stats = system.workload.stats
        sharing = system.sharing
        assert sharing.stats.batches_launched > 0
        assert sharing.stats.batch_followers > 0
        # Leaders take slots; followers ride them.  This identity holds
        # at any instant: an open window's leader is counted on both
        # sides, its joiners on neither until launch.
        assert stats.admitted == (
            system.admission.admitted + sharing.stats.batch_followers
        )

    def test_sessions_ledger_closes_after_drain(self):
        system = run_whole(batch_config())
        # Let open windows drain with arrivals silenced: every admitted
        # session (leader or follower) must then own its own terminal.
        system.workload.process = _Silence()
        system.env.run(until=50.0)
        stats = system.workload.stats
        assert len(system.terminal_stats) == stats.admitted
        in_queue = system.admission.queue_length
        assert stats.offered == (
            stats.admitted + stats.balked + stats.reneged + in_queue
        )


class TestQueuedThenBatched:
    def cap_config(self, cap, **overrides):
        return batch_config(
            admission=AdmissionSpec("fixed", max_streams=cap), **overrides
        )

    def test_converts_never_double_consume_slots(self):
        cap = 3
        system = run_whole(self.cap_config(cap), until=60.0)
        sharing = system.sharing
        stats = system.workload.stats
        # The cap genuinely bit, and queued requests converted into
        # open windows instead of waiting for a slot.
        assert system.admission.queued > 0
        assert sharing.stats.queue_converts > 0
        assert system.admission.active <= cap
        # A convert abandons its slot request entirely — the controller
        # never granted it one, so leaders alone account for the grants.
        assert stats.admitted == (
            system.admission.admitted + sharing.stats.batch_followers
        )
        # Batching beat the cap: more concurrent viewers than slots.
        assert stats.admitted > system.admission.admitted

    def test_convert_can_renege_inside_the_window(self):
        # A queued convert carries its already-running patience timer
        # into the window (a direct joiner does not draw one — joining
        # is a commitment).  Short patience + a long window makes some
        # timers expire between join and launch.
        system = run_whole(
            self.cap_config(
                2,
                sharing=SharingSpec(policy="batch", window_s=4.0),
                workload=ArrivalSpec(
                    process="poisson",
                    rate_per_s=1.2,
                    mean_view_duration_s=20.0,
                    queue_limit=16,
                    mean_patience_s=1.5,
                ),
            ),
            until=60.0,
        )
        sharing = system.sharing
        assert sharing.stats.queue_converts > 0
        assert sharing.stats.batch_withdrawn > 0
        assert system.workload.stats.reneged > 0
        # Withdrawn joiners launched nothing: followers at launch are
        # converts-that-stayed plus direct joiners, never withdrawers.
        assert system.workload.stats.admitted == (
            system.admission.admitted + sharing.stats.batch_followers
        )

    def test_capped_batching_is_deterministic(self):
        config = self.cap_config(3)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.deterministic_dict() == second.deterministic_dict()
        assert first.batches_launched > 0


class TestMetricsSurface:
    def test_active_run_reports_sharing_counters(self):
        metrics = run_simulation(batch_config())
        assert metrics.batches_launched > 0
        assert metrics.shared_streams > 0
        assert 0.0 < metrics.sharing_fraction < 1.0
        assert "batches_launched" in metrics.deterministic_dict()
        assert "shared=" in metrics.summary()

    def test_inert_run_drops_the_all_zero_group(self):
        metrics = run_simulation(batch_config(sharing=SharingSpec()))
        assert metrics.batches_launched == 0
        assert "batches_launched" not in metrics.deterministic_dict()
        assert "shared=" not in metrics.summary()
