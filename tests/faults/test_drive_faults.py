"""Fault hooks on the drive and bus models."""

import pytest

from repro.sched import FcfsScheduler
from repro.sim import Environment, RandomSource
from repro.storage import DiskDrive, DiskGeometry, DiskRequest, DriveParameters

CYL = DriveParameters().cylinder_bytes


def make_drive(env):
    params = DriveParameters()
    geometry = DiskGeometry(params.cylinder_bytes, 100 * params.cylinder_bytes)
    return DiskDrive(env, 0, params, geometry, FcfsScheduler(), RandomSource(1))


def timed_read(env, drive, offset=0, size=128 * 1024):
    request = DiskRequest(env, byte_offset=offset, size=size,
                          cylinder=offset // CYL)
    start = env.now
    drive.submit(request)
    env.run(until=request.done)
    return request, env.now - start


def sequential_reader(env, drive):
    """Reads continue where the last one ended: pure transfer time,
    no (randomised) positioning — so multipliers are exact."""
    offset = 0

    def read():
        nonlocal offset
        _, took = timed_read(env, drive, offset=offset)
        offset += 128 * 1024
        return took

    read()  # prime head position
    return read


class TestSlowdown:
    def test_slowdown_multiplies_service_time(self):
        env = Environment()
        drive = make_drive(env)
        read = sequential_reader(env, drive)
        normal = read()
        drive.add_slowdown(4.0)
        slowed = read()
        assert slowed == pytest.approx(4.0 * normal)
        drive.remove_slowdown(4.0)
        recovered = read()
        assert recovered == pytest.approx(normal)

    def test_overlapping_slowdowns_compound(self):
        env = Environment()
        drive = make_drive(env)
        read = sequential_reader(env, drive)
        normal = read()
        drive.add_slowdown(2.0)
        drive.add_slowdown(3.0)
        slowed = read()
        assert slowed == pytest.approx(6.0 * normal)

    def test_multiplier_must_not_speed_up(self):
        env = Environment()
        drive = make_drive(env)
        with pytest.raises(ValueError):
            drive.add_slowdown(0.5)


class TestOutage:
    def test_outage_stalls_service_until_it_ends(self):
        env = Environment()
        drive = make_drive(env)
        drive.begin_outage()
        assert drive.in_outage
        request = DiskRequest(env, byte_offset=0, size=512 * 1024, cylinder=0)
        drive.submit(request)

        def ender(env):
            yield env.timeout(5.0)
            drive.end_outage()

        env.process(ender(env))
        env.run(until=request.done)
        assert not drive.in_outage
        assert env.now >= 5.0

    def test_nested_outages(self):
        env = Environment()
        drive = make_drive(env)
        drive.begin_outage()
        drive.begin_outage()
        drive.end_outage()
        assert drive.in_outage
        drive.end_outage()
        assert not drive.in_outage


class TestPermanentFailure:
    def test_failed_drive_fails_requests_immediately(self):
        env = Environment()
        drive = make_drive(env)
        drive.fail_permanently()
        request = DiskRequest(env, byte_offset=0, size=512 * 1024, cylinder=0)
        drive.submit(request)
        env.run(until=request.done)
        assert request.failed
        assert env.now == 0.0

    def test_failure_flushes_queued_requests(self):
        env = Environment()
        drive = make_drive(env)
        slow = DiskRequest(env, byte_offset=0, size=512 * 1024, cylinder=0)
        queued = DiskRequest(env, byte_offset=90 * CYL, size=512 * 1024, cylinder=90)
        drive.submit(slow)
        drive.submit(queued)

        def failer(env):
            yield env.timeout(0.001)  # mid-service of the first request
            drive.fail_permanently()

        env.process(failer(env))
        env.run(until=queued.done)
        assert queued.failed
        assert len(drive.scheduler) == 0

    def test_failure_during_outage_does_not_deadlock(self):
        env = Environment()
        drive = make_drive(env)
        drive.begin_outage()
        request = DiskRequest(env, byte_offset=0, size=512 * 1024, cylinder=0)
        drive.submit(request)
        drive.fail_permanently()
        env.run(until=request.done)
        assert request.failed


class TestCancelledRequests:
    def test_cancelled_request_is_skipped(self):
        env = Environment()
        drive = make_drive(env)
        first = DiskRequest(env, byte_offset=0, size=512 * 1024, cylinder=0)
        second = DiskRequest(env, byte_offset=90 * CYL, size=512 * 1024, cylinder=90)
        drive.submit(first)
        drive.submit(second)
        second.cancel()
        env.run(until=second.done)
        # The cancelled request completes without being serviced.
        assert drive.reads == 1
        assert second.started_at is None or second.completed_at == second.started_at
