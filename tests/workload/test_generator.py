"""End-to-end tests of the session generator: churn, queueing,
determinism, QoS accounting, and the closed-system identity contract."""

import pytest

from repro import MB, SpiffiConfig, SpiffiSystem, run_simulation
from repro.server.admission import AdmissionSpec
from repro.telemetry import trace as trace_events
from repro.workload import ArrivalSpec


def open_config(**overrides):
    """A small open-system run that finishes in well under a second."""
    defaults = dict(
        nodes=2,
        disks_per_node=2,
        terminals=1,  # ignored once the workload is open
        videos_per_disk=2,
        video_length_s=600.0,
        server_memory_bytes=256 * MB,
        start_spread_s=4.0,
        warmup_grace_s=6.0,
        measure_s=30.0,
        seed=7,
        workload=ArrivalSpec(
            process="poisson",
            rate_per_s=0.5,
            mean_view_duration_s=20.0,
        ),
    )
    defaults.update(overrides)
    return SpiffiConfig(**defaults)


class TestOpenSystem:
    def test_sessions_arrive_and_churn(self):
        metrics = run_simulation(open_config())
        assert metrics.offered_sessions > 5
        assert metrics.admitted_sessions == metrics.offered_sessions
        # 20s mean views of 600s videos: sessions depart mid-video.
        assert metrics.abandoned_sessions > 0
        assert metrics.arrival_rate_per_s == pytest.approx(
            metrics.offered_sessions / 30.0
        )

    def test_realized_rate_near_configured(self):
        # A longer window so the Poisson average settles.
        metrics = run_simulation(open_config(measure_s=120.0))
        assert metrics.arrival_rate_per_s == pytest.approx(0.5, rel=0.4)

    def test_deterministic_across_runs(self):
        first = run_simulation(open_config())
        second = run_simulation(open_config())
        assert first.deterministic_dict() == second.deterministic_dict()

    def test_seed_changes_outcome(self):
        a = run_simulation(open_config(seed=7))
        b = run_simulation(open_config(seed=8))
        assert a.deterministic_dict() != b.deterministic_dict()

    def test_qos_percentiles_populated(self):
        metrics = run_simulation(open_config())
        assert metrics.startup_p50_s > 0.0
        assert metrics.startup_p50_s <= metrics.startup_p95_s <= metrics.startup_p99_s
        assert 0.0 < metrics.startup_slo_attainment <= 1.0

    def test_every_admitted_session_spawns_one_terminal(self):
        """Sessions and terminals must stay 1:1 (no double-counting)."""
        system = SpiffiSystem(open_config())
        system.start()
        system.env.run(until=20.0)  # no stats reset: totals since t=0
        assert len(system.terminal_stats) == system.workload.stats.admitted
        assert system.admission.admitted == system.workload.stats.admitted

    def test_terminals_metric_counts_spawned_sessions(self):
        metrics = run_simulation(open_config())
        # terminals reports the spawned population, not config.terminals.
        assert metrics.terminals >= metrics.admitted_sessions


class TestWaitQueue:
    def tight_config(self, **overrides):
        return open_config(
            admission=AdmissionSpec("fixed", max_streams=4),
            measure_s=60.0,
            workload=ArrivalSpec(
                process="poisson",
                rate_per_s=0.8,
                mean_view_duration_s=30.0,
                queue_limit=3,
                mean_patience_s=4.0,
            ),
            **overrides,
        )

    def test_balk_and_renege_under_pressure(self):
        metrics = run_simulation(self.tight_config())
        assert metrics.balked_sessions > 0
        assert metrics.reneged_sessions > 0
        assert metrics.rejected_sessions == (
            metrics.balked_sessions + metrics.reneged_sessions
        )
        assert 0.0 < metrics.rejection_rate < 1.0
        accounted = metrics.admitted_sessions + metrics.rejected_sessions
        # Everything offered is admitted, rejected, or still queued.
        assert accounted <= metrics.offered_sessions

    def test_queue_statistics_collected(self):
        metrics = run_simulation(self.tight_config())
        assert metrics.admission_queue_len_max > 0
        assert metrics.admission_queue_len_max <= 3  # balk bound
        assert 0.0 < metrics.admission_queue_len_mean <= 3.0
        assert metrics.admission_max_wait_s > 0.0
        assert metrics.admission_max_wait_s >= metrics.admission_mean_wait_s

    def test_infinite_patience_never_reneges(self):
        config = open_config(
            admission=AdmissionSpec("fixed", max_streams=4),
            workload=ArrivalSpec(
                process="poisson",
                rate_per_s=0.8,
                mean_view_duration_s=30.0,
                queue_limit=500,
                mean_patience_s=0.0,
            ),
        )
        metrics = run_simulation(config)
        assert metrics.reneged_sessions == 0
        assert metrics.balked_sessions == 0


class TestSessionTracing:
    def test_lifecycle_events_recorded(self):
        system = SpiffiSystem(
            open_config(admission=AdmissionSpec("fixed", max_streams=4))
        )
        recorder = system.enable_tracing()
        system.run()
        assert recorder.counts[trace_events.SESSION_ARRIVE] > 0
        assert recorder.counts[trace_events.SESSION_ADMIT] > 0
        arrive = recorder.events(trace_events.SESSION_ARRIVE)[0]
        assert "session" in arrive.fields

    def test_queue_events_under_pressure(self):
        config = open_config(
            admission=AdmissionSpec("fixed", max_streams=2),
            workload=ArrivalSpec(
                process="poisson",
                rate_per_s=0.8,
                mean_view_duration_s=30.0,
                queue_limit=3,
                mean_patience_s=4.0,
            ),
        )
        system = SpiffiSystem(config)
        recorder = system.enable_tracing()
        system.run()
        assert recorder.counts[trace_events.QUEUE_ENTER] > 0
        assert recorder.counts[trace_events.SESSION_BALK] > 0
        assert recorder.counts[trace_events.SESSION_RENEGE] > 0

    def test_closed_system_has_no_sessions_to_trace(self):
        system = SpiffiSystem(SpiffiConfig(terminals=2, measure_s=5.0))
        with pytest.raises(ValueError, match="SpiffiNode"):
            system.enable_tracing()


class TestClosedIdentity:
    """The closed default must be bit-identical to a pre-workload build."""

    def closed_config(self, **overrides):
        defaults = dict(
            nodes=2,
            disks_per_node=2,
            terminals=12,
            videos_per_disk=2,
            video_length_s=600.0,
            server_memory_bytes=256 * MB,
            start_spread_s=4.0,
            warmup_grace_s=6.0,
            measure_s=20.0,
            seed=7,
        )
        defaults.update(overrides)
        return SpiffiConfig(**defaults)

    def test_explicit_default_spec_is_identity(self):
        implicit = run_simulation(self.closed_config())
        explicit = run_simulation(
            self.closed_config(workload=ArrivalSpec())
        )
        assert implicit.deterministic_dict() == explicit.deterministic_dict()

    def test_closed_run_reports_zero_sessions(self):
        metrics = run_simulation(self.closed_config())
        assert metrics.offered_sessions == 0
        assert metrics.admitted_sessions == 0
        assert metrics.balked_sessions == 0
        assert metrics.reneged_sessions == 0
        assert metrics.arrival_rate_per_s == 0.0
        assert metrics.rejection_rate == 0.0

    def test_closed_system_builds_no_generator(self):
        system = SpiffiSystem(self.closed_config())
        assert system.workload is None
        assert len(system.terminals) == 12
