"""Tests for the pre-computed fault timetable."""

import math

import pytest

from repro.faults import FaultSpec, build_schedule
from repro.faults.spec import DISK_FAIL, DISK_OUTAGE, DISK_SLOW
from repro.sim.rng import RandomSource


def schedule(spec, disks=4, horizon=300.0, seed=11):
    return build_schedule(spec, disks, horizon, RandomSource(seed).spawn("faults"))


class TestDeterminism:
    def test_same_inputs_same_schedule(self):
        spec = FaultSpec(disk_fault_rate_per_hour=240.0, fail_weight=0.5)
        assert schedule(spec) == schedule(spec)

    def test_different_seed_different_schedule(self):
        spec = FaultSpec(disk_fault_rate_per_hour=240.0)
        assert schedule(spec, seed=1) != schedule(spec, seed=2)

    def test_per_disk_streams_independent(self):
        # Adding a disk appends that disk's events without perturbing
        # the faults already scheduled for existing disks.
        spec = FaultSpec(disk_fault_rate_per_hour=240.0)
        small = {e for e in schedule(spec, disks=2)}
        large = {e for e in schedule(spec, disks=3)}
        assert small <= large
        assert {e.target for e in large - small} == {2}


class TestShape:
    def test_empty_spec_empty_schedule(self):
        assert schedule(FaultSpec()) == ()

    def test_sorted_by_start_time(self):
        spec = FaultSpec(disk_fault_rate_per_hour=240.0)
        events = schedule(spec)
        assert list(events) == sorted(events, key=lambda e: (e.start_s, e.target, e.kind))
        assert all(0.0 <= e.start_s < 300.0 for e in events)

    def test_kinds_follow_weights(self):
        only_slow = schedule(FaultSpec(disk_fault_rate_per_hour=240.0,
                                       slow_weight=1.0, outage_weight=0.0))
        assert {e.kind for e in only_slow} == {DISK_SLOW}
        only_outage = schedule(FaultSpec(disk_fault_rate_per_hour=240.0,
                                         slow_weight=0.0, outage_weight=1.0))
        assert {e.kind for e in only_outage} == {DISK_OUTAGE}

    def test_permanent_failure_ends_disk_stream(self):
        spec = FaultSpec(disk_fault_rate_per_hour=720.0, slow_weight=0.0,
                         outage_weight=0.0, fail_weight=1.0)
        events = schedule(spec, disks=3, horizon=3600.0)
        # Exactly one (permanent) failure per disk, nothing after it.
        assert len(events) == 3
        assert {e.target for e in events} == {0, 1, 2}
        for event in events:
            assert event.kind == DISK_FAIL
            assert event.permanent
            assert math.isinf(event.end_s)

class TestArguments:
    def test_bad_disk_count(self):
        with pytest.raises(ValueError):
            build_schedule(FaultSpec(), 0, 100.0, RandomSource(1))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            build_schedule(FaultSpec(), 4, 0.0, RandomSource(1))
