"""Unit tests of the per-disk health model."""

import math

import pytest

from repro.faults.schedule import FaultEvent
from repro.faults.spec import DISK_FAIL, DISK_OUTAGE, DISK_SLOW
from repro.replication.health import (
    DOWN,
    FAILED,
    HEALTHY,
    SUSPECT,
    HealthMonitor,
)
from repro.sim.environment import Environment


def event(kind, target=0, duration=5.0, magnitude=0.0):
    return FaultEvent(
        start_s=0.0, kind=kind, target=target,
        duration_s=duration, magnitude=magnitude,
    )


def monitor(disks=4):
    return HealthMonitor(Environment(), disks)


class TestStates:
    def test_initially_all_healthy(self):
        m = monitor()
        assert all(m.state(d) == HEALTHY for d in range(4))
        assert all(m.rank(d) == 0 for d in range(4))

    def test_timeout_suspects_until_cooldown(self):
        m = monitor()
        m.note_timeout(1)
        assert m.state(1) == SUSPECT
        assert m.state(0) == HEALTHY
        m.env.run(until=10.0)
        assert m.state(1) == SUSPECT  # boundary inclusive
        m.env.run(until=10.5)
        assert m.state(1) == HEALTHY

    def test_repeat_timeouts_extend_the_cooldown(self):
        m = monitor()
        m.note_timeout(1)
        m.env.run(until=8.0)
        m.note_timeout(1)
        m.env.run(until=12.0)
        assert m.state(1) == SUSPECT

    def test_slow_fault_suspects_while_active(self):
        m = monitor()
        m.fault_applied(event(DISK_SLOW, target=2))
        assert m.state(2) == SUSPECT
        m.fault_reverted(event(DISK_SLOW, target=2))
        assert m.state(2) == HEALTHY

    def test_outage_is_down_and_recovers(self):
        m = monitor()
        m.fault_applied(event(DISK_OUTAGE, target=2))
        assert m.state(2) == DOWN
        m.fault_reverted(event(DISK_OUTAGE, target=2))
        assert m.state(2) == HEALTHY

    def test_overlapping_outages_recover_only_when_all_end(self):
        m = monitor()
        m.fault_applied(event(DISK_OUTAGE, target=2))
        m.fault_applied(event(DISK_OUTAGE, target=2))
        m.fault_reverted(event(DISK_OUTAGE, target=2))
        assert m.state(2) == DOWN
        m.fault_reverted(event(DISK_OUTAGE, target=2))
        assert m.state(2) == HEALTHY

    def test_permanent_failure_is_terminal(self):
        m = monitor()
        m.fault_applied(event(DISK_FAIL, target=3, duration=math.inf))
        assert m.state(3) == FAILED
        m.note_timeout(3)
        assert m.state(3) == FAILED

    def test_ranks_order_by_severity(self):
        m = monitor()
        m.note_timeout(1)
        m.fault_applied(event(DISK_OUTAGE, target=2))
        m.fault_applied(event(DISK_FAIL, target=3, duration=math.inf))
        ranks = [m.rank(d) for d in range(4)]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == 4

class TestFailureCallbacks:
    def test_callback_fires_once_per_disk(self):
        m = monitor()
        failed = []
        m.subscribe_failed(failed.append)
        m.fault_applied(event(DISK_FAIL, target=2, duration=math.inf))
        m.fault_applied(event(DISK_FAIL, target=2, duration=math.inf))
        m.fault_applied(event(DISK_FAIL, target=0, duration=math.inf))
        assert failed == [2, 0]


class TestValidation:
    def test_rejects_empty_disk_set(self):
        with pytest.raises(ValueError):
            HealthMonitor(Environment(), 0)
