"""The real-time scheduler's one-pass ``pop`` against its definition.

The reference is built here from the public pieces the scheduler is
defined by: :meth:`RealTimeScheduler.classify` picks the most urgent
non-empty class and :func:`elevator_select` picks within it.  Both
drain the same request objects; after every pop they must have taken
the same request and be sweeping in the same direction.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import RealTimeScheduler, elevator_select
from repro.sim import Environment
from repro.storage.request import DiskRequest

SPACING = 4.0
CLASSES = 3


class ReferenceRealTime:
    """classify + elevator_select, with ``DiskScheduler._take``'s
    swap-with-last removal so queue positions stay aligned."""

    def __init__(self, classes: int, spacing: float, direction: int) -> None:
        self.classifier = RealTimeScheduler(classes, spacing)
        self.pending: list[DiskRequest] = []
        self.direction = direction

    def pop(self, now: float, head: int) -> DiskRequest:
        classes = [self.classifier.classify(r, now) for r in self.pending]
        best = min(classes)
        indices = [i for i, cls in enumerate(classes) if cls == best]
        index, self.direction = elevator_select(
            self.pending, head, self.direction, indices
        )
        request = self.pending[index]
        last = self.pending.pop()
        if index < len(self.pending):
            self.pending[index] = last
        return request


#: Deadlines relative to the current time: future, already passed,
#: exactly on a class cutoff, and the infinite ones.
OFFSETS = st.one_of(
    st.floats(-10.0, 20.0, allow_nan=False),
    st.integers(-2, CLASSES + 1).map(lambda k: k * SPACING),
    st.just(math.inf),
    st.just(-math.inf),
)

#: (cylinder, deadline offset, forced seq or None).  Few cylinders make
#: cylinder ties (and a head on a request's cylinder) common; a small
#: forced seq range makes ``(distance, seq)`` ties between requests.
SPECS = st.tuples(
    st.integers(0, 12), OFFSETS, st.one_of(st.none(), st.integers(0, 3))
)

#: What happens between two pops: time passes, some queued deadlines
#: tighten (by queue position), new requests arrive.
ROUNDS = st.tuples(
    st.sampled_from([0.0, 0.5, SPACING, 3 * SPACING]),
    st.lists(st.tuples(st.integers(0, 63), OFFSETS), max_size=3),
    st.lists(SPECS, max_size=3),
)


def make_request(env: Environment, spec, now: float) -> DiskRequest:
    cylinder, offset, seq = spec
    request = DiskRequest(env, cylinder * 1_310_720, 1024, cylinder, deadline=now + offset)
    if seq is not None:
        request.seq = seq
    return request


@given(
    now=st.floats(0.0, 50.0, allow_nan=False),
    direction=st.sampled_from([1, -1]),
    classes=st.integers(1, 4),
    head=st.integers(-3, 15),  # below, among, or above the requests
    initial=st.lists(SPECS, min_size=1, max_size=10),
    rounds=st.lists(ROUNDS, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_pop_matches_classify_plus_elevator(now, direction, classes, head, initial, rounds):
    env = Environment()
    scheduler = RealTimeScheduler(classes, SPACING)
    scheduler.direction = direction
    reference = ReferenceRealTime(classes, SPACING, direction)

    def push(specs):
        for spec in specs:
            request = make_request(env, spec, now)
            scheduler.push(request)
            reference.pending.append(request)

    push(initial)
    step = 0
    while len(scheduler):
        expected = reference.pop(now, head)
        taken = scheduler.pop(now, head)
        assert taken is expected
        assert scheduler.direction == reference.direction
        assert list(scheduler.pending) == reference.pending
        head = taken.cylinder
        if step < len(rounds):
            dt, tightenings, arrivals = rounds[step]
            now += dt
            for position, offset in tightenings:
                if reference.pending:
                    queued = reference.pending[position % len(reference.pending)]
                    queued.tighten_deadline(now + offset)
            push(arrivals)
        step += 1


def test_empty_pop_raises_and_keeps_direction():
    scheduler = RealTimeScheduler(CLASSES, SPACING)
    scheduler.direction = -1
    with pytest.raises(ValueError):
        scheduler.pop(0.0, 5)
    assert scheduler.direction == -1
