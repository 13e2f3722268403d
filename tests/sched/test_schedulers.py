"""Tests for the disk scheduling algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    EdfScheduler,
    ElevatorScheduler,
    FcfsScheduler,
    GssScheduler,
    RealTimeScheduler,
    RoundRobinScheduler,
    SchedulerSpec,
)
from repro.sim import Environment
from repro.storage.request import NO_DEADLINE, DiskRequest


def req(env, cylinder, deadline=NO_DEADLINE, terminal=0, prefetch=False):
    return DiskRequest(
        env,
        byte_offset=cylinder * 1_310_720,
        size=1024,
        cylinder=cylinder,
        deadline=deadline,
        is_prefetch=prefetch,
        terminal_id=terminal,
    )


def drain(scheduler, now=0.0, head=0):
    order = []
    while len(scheduler):
        request = scheduler.pop(now, head)
        head = request.cylinder
        order.append(request)
    return order


class TestFcfs:
    def test_pops_in_arrival_order(self):
        env = Environment()
        scheduler = FcfsScheduler()
        requests = [req(env, c) for c in (50, 10, 90)]
        for r in requests:
            scheduler.push(r)
        assert drain(scheduler) == requests

    def test_pops_in_seq_order_whatever_the_push_order(self):
        env = Environment()
        scheduler = FcfsScheduler()
        requests = [req(env, c) for c in (50, 10, 90, 30, 70)]
        for index in (3, 0, 4, 2, 1):
            scheduler.push(requests[index])
        assert set(scheduler.pending) == set(requests)
        assert drain(scheduler) == requests


class TestElevator:
    def test_sweeps_upward_then_reverses(self):
        env = Environment()
        scheduler = ElevatorScheduler()
        for cylinder in (80, 20, 50, 10):
            scheduler.push(req(env, cylinder))
        order = [r.cylinder for r in drain(scheduler, head=30)]
        assert order == [50, 80, 20, 10]

    def test_same_cylinder_fifo(self):
        env = Environment()
        scheduler = ElevatorScheduler()
        first = req(env, 40)
        second = req(env, 40)
        scheduler.push(second)  # pushed first → lower seq? no: created first
        scheduler.push(first)
        popped = scheduler.pop(0.0, 0)
        assert popped is first  # FIFO by creation order (seq)

    def test_services_request_at_head_position(self):
        env = Environment()
        scheduler = ElevatorScheduler()
        scheduler.push(req(env, 30))
        assert scheduler.pop(0.0, 30).cylinder == 30


class TestRoundRobin:
    def test_cycles_terminals(self):
        env = Environment()
        scheduler = RoundRobinScheduler()
        for terminal in (0, 0, 1, 2):
            scheduler.push(req(env, 10 * terminal, terminal=terminal))
        order = [r.terminal_id for r in drain(scheduler)]
        assert order == [0, 1, 2, 0]

    def test_oldest_request_per_terminal_first(self):
        env = Environment()
        scheduler = RoundRobinScheduler()
        old = req(env, 5, terminal=3)
        new = req(env, 7, terminal=3)
        scheduler.push(new)
        scheduler.push(old)
        assert scheduler.pop(0.0, 0) is old


class TestGss:
    def test_one_group_one_service_per_terminal_per_sweep(self):
        env = Environment()
        scheduler = GssScheduler(groups=1)
        # Terminal 0 has two requests; terminal 1 has one.
        a0 = req(env, 10, terminal=0)
        a1 = req(env, 20, terminal=0)
        b0 = req(env, 15, terminal=1)
        for r in (a0, a1, b0):
            scheduler.push(r)
        order = drain(scheduler)
        # First sweep: one request each from terminals 0 and 1 (elevator
        # order), then terminal 0's second request.
        assert order == [a0, b0, a1]

    def test_groups_processed_round_robin(self):
        env = Environment()
        scheduler = GssScheduler(groups=2)
        even = req(env, 10, terminal=0)  # group 0
        odd = req(env, 5, terminal=1)   # group 1
        scheduler.push(odd)
        scheduler.push(even)
        first = scheduler.pop(0.0, 0)
        second = scheduler.pop(0.0, first.cylinder)
        assert {first.terminal_id, second.terminal_id} == {0, 1}
        assert first.terminal_id == 0  # group 0 goes first

    def test_empty_groups_skipped(self):
        env = Environment()
        scheduler = GssScheduler(groups=4)
        only = req(env, 10, terminal=3)
        scheduler.push(only)
        assert scheduler.pop(0.0, 0) is only

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GssScheduler(groups=0)


class TestRealTime:
    def test_urgent_class_first_even_if_far(self):
        env = Environment()
        scheduler = RealTimeScheduler(priority_classes=3, priority_spacing_s=2.0)
        near_not_urgent = req(env, 10, deadline=100.0)
        far_urgent = req(env, 90, deadline=1.0)
        scheduler.push(near_not_urgent)
        scheduler.push(far_urgent)
        assert scheduler.pop(0.0, 0) is far_urgent

    def test_elevator_within_class(self):
        env = Environment()
        scheduler = RealTimeScheduler(priority_classes=3, priority_spacing_s=2.0)
        a = req(env, 60, deadline=1.0)
        b = req(env, 30, deadline=1.5)
        scheduler.push(a)
        scheduler.push(b)
        # Both class 0; elevator from head 0 goes to cylinder 30 first.
        assert scheduler.pop(0.0, 0) is b

    def test_priorities_recomputed_with_time(self):
        env = Environment()
        scheduler = RealTimeScheduler(priority_classes=3, priority_spacing_s=2.0)
        request = req(env, 10, deadline=5.0)
        assert scheduler.classify(request, now=0.0) == 2
        assert scheduler.classify(request, now=2.0) == 1
        assert scheduler.classify(request, now=4.5) == 0

    def test_overdue_is_most_urgent(self):
        env = Environment()
        scheduler = RealTimeScheduler()
        request = req(env, 10, deadline=1.0)
        assert scheduler.classify(request, now=5.0) == 0

    def test_no_deadline_is_least_urgent(self):
        env = Environment()
        scheduler = RealTimeScheduler(priority_classes=3)
        prefetch = req(env, 10, prefetch=True)
        assert scheduler.classify(prefetch, now=0.0) == 2

    def test_figure5_example(self):
        """Figure 5: 3 classes, 2s spacing — within 2s → class 0,
        beyond 4s → class 2."""
        env = Environment()
        scheduler = RealTimeScheduler(priority_classes=3, priority_spacing_s=2.0)
        assert scheduler.classify(req(env, 0, deadline=1.9), 0.0) == 0
        assert scheduler.classify(req(env, 0, deadline=3.0), 0.0) == 1
        assert scheduler.classify(req(env, 0, deadline=4.1), 0.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RealTimeScheduler(priority_classes=0)
        with pytest.raises(ValueError):
            RealTimeScheduler(priority_spacing_s=0)


class TestEdf:
    def test_earliest_deadline_first(self):
        env = Environment()
        scheduler = EdfScheduler()
        late = req(env, 10, deadline=50.0)
        early = req(env, 90, deadline=5.0)
        scheduler.push(late)
        scheduler.push(early)
        assert scheduler.pop(0.0, 0) is early


class TestSchedulerSpec:
    def test_build_each(self):
        for name, cls in (
            ("fcfs", FcfsScheduler),
            ("elevator", ElevatorScheduler),
            ("round_robin", RoundRobinScheduler),
            ("gss", GssScheduler),
            ("realtime", RealTimeScheduler),
            ("edf", EdfScheduler),
        ):
            assert isinstance(SchedulerSpec(name).build(), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            SchedulerSpec("lifo")

    def test_labels(self):
        assert "3 prio" in SchedulerSpec("realtime").label()
        assert "1 group" in SchedulerSpec("gss").label()


@given(
    cylinders=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30),
    name=st.sampled_from(["fcfs", "elevator", "round_robin", "gss", "realtime", "edf"]),
)
@settings(max_examples=60, deadline=None)
def test_property_every_request_serviced_exactly_once(cylinders, name):
    """No scheduler loses or duplicates requests."""
    env = Environment()
    scheduler = SchedulerSpec(name).build()
    requests = [
        req(env, cylinder, deadline=float(i), terminal=i % 5)
        for i, cylinder in enumerate(cylinders)
    ]
    for request in requests:
        scheduler.push(request)
    serviced = drain(scheduler)
    assert len(serviced) == len(requests)
    assert set(map(id, serviced)) == set(map(id, requests))
