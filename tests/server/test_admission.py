"""Tests for admission control."""

import pytest

from repro.analytic import StreamParameters
from repro.server.admission import (
    AdmissionController,
    AdmissionSpec,
    admission_policy_names,
    register_admission_policy,
)
from repro.sim import Environment
from repro.storage import DriveParameters

GB = 1024 ** 3


class TestAdmissionSpec:
    def test_none_has_no_limit(self):
        spec = AdmissionSpec()
        limit = spec.stream_limit(16, DriveParameters(), StreamParameters(), 5 * GB)
        assert limit is None

    def test_fixed_cap(self):
        spec = AdmissionSpec(policy="fixed", max_streams=42)
        assert spec.stream_limit(16, DriveParameters(), StreamParameters(), 5 * GB) == 42

    def test_bandwidth_reservation(self):
        spec = AdmissionSpec(policy="bandwidth", headroom=0.5)
        limit = spec.stream_limit(16, DriveParameters(), StreamParameters(), 5 * GB)
        # 16 disks * 7.4 MB/s * 0.5 / 0.5 MB/s ≈ 118 streams.
        assert limit == int(16 * 7.4e6 * 0.5 / 5e5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionSpec(policy="vibes")
        with pytest.raises(ValueError):
            AdmissionSpec(policy="fixed", max_streams=0)
        with pytest.raises(ValueError):
            AdmissionSpec(headroom=0.0)

    def test_labels(self):
        assert AdmissionSpec().label() == "none"
        assert AdmissionSpec("fixed", max_streams=7).label() == "fixed(7)"
        assert AdmissionSpec("bandwidth", headroom=0.5).label() == "bandwidth(0.5)"


class TestAdmissionRegistry:
    def test_builtins_registered(self):
        names = admission_policy_names()
        for builtin in ("none", "fixed", "bandwidth"):
            assert builtin in names

    def test_unknown_policy_error_names_registry(self):
        with pytest.raises(ValueError) as err:
            AdmissionSpec(policy="vibes")
        message = str(err.value)
        assert "vibes" in message
        for name in admission_policy_names():
            assert name in message

    def test_plugin_policy(self, scratch_registries):
        register_admission_policy("ten", lambda spec, *context: 10)
        spec = AdmissionSpec(policy="ten")
        assert "ten" in admission_policy_names()
        limit = spec.stream_limit(16, DriveParameters(), StreamParameters(), 5 * GB)
        assert limit == 10

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_admission_policy("", lambda spec, *context: None)
        with pytest.raises(ValueError):
            register_admission_policy(None, lambda spec, *context: None)


class TestAdmissionController:
    def test_unlimited_admits_all(self):
        env = Environment()
        controller = AdmissionController(env, limit=None)
        for _ in range(100):
            assert controller.request_slot().triggered
        assert controller.queued == 0

    def test_cap_queues_excess(self):
        env = Environment()
        controller = AdmissionController(env, limit=2)
        first = controller.request_slot()
        second = controller.request_slot()
        third = controller.request_slot()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert controller.queue_length == 1

    def test_release_admits_waiter_fifo(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        waiter_a = controller.request_slot()
        waiter_b = controller.request_slot()
        controller.release_slot()
        assert waiter_a.triggered
        assert not waiter_b.triggered
        controller.release_slot()
        assert waiter_b.triggered

    def test_wait_time_recorded(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        waiter = controller.request_slot()

        def releaser(env):
            yield env.timeout(7.0)
            controller.release_slot()

        env.process(releaser(env))
        env.run(until=waiter)
        assert controller.wait_times.maximum == pytest.approx(7.0)

    def test_release_without_active_rejected(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        with pytest.raises(ValueError):
            controller.release_slot()


class TestWaitQueueStats:
    """The bounded-queue hooks the open-system workload layer uses."""

    def test_would_queue_tracks_capacity(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        assert not controller.would_queue
        controller.request_slot()
        assert controller.would_queue

    def test_would_queue_unlimited_only_when_shedding(self):
        env = Environment()
        controller = AdmissionController(env, limit=None)
        assert not controller.would_queue
        controller.begin_shed()
        assert controller.would_queue

    def test_cancel_removes_waiter(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        waiter = controller.request_slot()
        assert controller.queue_length == 1
        assert controller.cancel(waiter)
        assert controller.queue_length == 0
        # The slot now goes to nobody: release keeps capacity free.
        controller.release_slot()
        assert controller.active == 0

    def test_cancel_admitted_event_is_noop(self):
        env = Environment()
        controller = AdmissionController(env, limit=2)
        admitted = controller.request_slot()
        assert admitted.triggered
        assert not controller.cancel(admitted)

    def test_cancelled_waiter_never_admitted(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        first = controller.request_slot()
        second = controller.request_slot()
        controller.cancel(first)
        controller.release_slot()
        assert not first.triggered
        assert second.triggered

    def test_queue_length_time_series(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()

        def scenario(env):
            yield env.timeout(4.0)  # queue empty for 4s
            controller.request_slot()
            yield env.timeout(4.0)  # one waiter for 4s
            controller.release_slot()
            yield env.timeout(8.0)  # empty again for 8s

        env.process(scenario(env))
        env.run(until=16.0)
        assert controller.queue_lengths.maximum == 1
        assert controller.queue_lengths.mean(16.0) == pytest.approx(4.0 / 16.0)

    def test_max_wait_reported(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        waiter = controller.request_slot()

        def releaser(env):
            yield env.timeout(9.0)
            controller.release_slot()

        env.process(releaser(env))
        env.run(until=waiter)
        assert controller.max_wait_s == pytest.approx(9.0)

    def test_reset_clears_queue_series(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        controller.request_slot()
        controller.reset_stats()
        assert controller.max_wait_s == 0.0
        # The waiter is still queued: the level survives the reset.
        assert controller.queue_lengths.level == 1


class TestShedding:
    """Degraded mode: admission pauses while a disk outage is active."""

    def test_shed_queues_even_with_capacity(self):
        env = Environment()
        controller = AdmissionController(env, limit=4)
        controller.begin_shed()
        waiter = controller.request_slot()
        assert not waiter.triggered
        assert controller.shed_admissions == 1
        controller.end_shed()
        assert waiter.triggered

    def test_release_does_not_admit_while_shedding(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        waiter = controller.request_slot()
        controller.begin_shed()
        controller.release_slot()
        assert not waiter.triggered
        controller.end_shed()
        assert waiter.triggered

    def test_nested_sheds_drain_at_zero(self):
        env = Environment()
        controller = AdmissionController(env, limit=2)
        controller.begin_shed()
        controller.begin_shed()
        waiter = controller.request_slot()
        controller.end_shed()
        assert controller.shedding
        assert not waiter.triggered
        controller.end_shed()
        assert not controller.shedding
        assert waiter.triggered

    def test_drain_respects_capacity(self):
        env = Environment()
        controller = AdmissionController(env, limit=1)
        controller.request_slot()
        controller.begin_shed()
        waiter = controller.request_slot()
        controller.end_shed()
        # The slot is still held; the waiter keeps waiting.
        assert not waiter.triggered
        controller.release_slot()
        assert waiter.triggered


class TestEndToEndAdmission:
    def test_fixed_cap_prevents_overload_glitches(self):
        from repro import MB, SpiffiConfig, run_simulation

        base = dict(
            nodes=2, disks_per_node=2, videos_per_disk=2,
            video_length_s=120.0, server_memory_bytes=128 * MB,
            start_spread_s=3.0, warmup_grace_s=10.0, measure_s=40.0,
            terminals=90,  # far beyond 4-disk capacity (~59)
            seed=5,
        )
        unlimited = run_simulation(SpiffiConfig(**base))
        capped = run_simulation(
            SpiffiConfig(admission=AdmissionSpec(policy="fixed", max_streams=40), **base)
        )
        assert unlimited.glitches > 0
        assert capped.glitches == 0
        assert capped.admissions_queued > 0
        assert capped.admission_mean_wait_s >= 0.0
