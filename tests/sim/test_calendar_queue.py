"""Isolation property tests for the ``CalendarEventQueue`` oracle.

The differential suites pin the calendar scheduler bit-identical to the
heap kernel; these tests hit the queue *directly*
with adversarial push/pop interleavings — no Environment, no processes
— so a violation points straight at the data structure.  Each
randomized case runs against the trivially correct model (a sorted
list) across bucket widths including the degenerate single-bucket case
and all-same-timestamp storms, plus targeted cases for resize-crossing
FIFO ties, cancel-while-bucketed, and infinite timestamps.
"""

import random

import pytest

from repro.sim import Interrupt

from tests.sim.calendar_kernel import CalendarEventQueue, calendar_environment

#: Width grid for the randomized model tests: adaptive, much finer than
#: typical gaps, comparable, much coarser, and one-bucket-degenerate.
WIDTHS = (0.0, 0.001, 0.25, 30.0, 1e12)


def random_ops(rng, count: int, same_time: bool = False):
    """A kernel-shaped op sequence: pushes never precede the clock."""
    ops = []
    now = 0.0
    seq = 0
    pending = 0
    for _ in range(count):
        if pending and rng.random() < 0.4:
            ops.append(("pop",))
            pending -= 1
        else:
            seq += 1
            if same_time:
                when = 5.0
            else:
                roll = rng.random()
                if roll < 0.15:
                    when = now  # zero-delay
                elif roll < 0.25:
                    when = round(now + 1e6 * rng.random(), 3)  # far-future
                else:
                    when = round(now + rng.random() * 10.0, 3)
            priority = 0 if rng.random() < 0.1 else 1
            ops.append(("push", (when, priority, seq, None)))
            pending += 1
    return ops


def replay(queue, ops):
    """Drive *queue* through *ops*, tracking the clock like the kernel."""
    popped = []
    for op in ops:
        if op[0] == "push":
            queue.push(op[1])
        else:
            popped.append(queue.pop())
    # Drain the rest.
    while queue:
        popped.append(queue.pop())
    return popped


class ModelQueue:
    """The obviously correct model: a list re-sorted on every pop."""

    def __init__(self):
        self.items = []

    def push(self, item):
        self.items.append(item)

    def pop(self):
        self.items.sort()
        return self.items.pop(0)

    def __bool__(self):
        return bool(self.items)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("seed", range(10))
def test_random_interleavings_match_model(seed, width):
    rng = random.Random(seed)
    ops = random_ops(rng, 300)
    assert replay(CalendarEventQueue(width), list(ops)) == replay(
        ModelQueue(), list(ops)
    ), f"seed {seed}, width {width}"


@pytest.mark.parametrize("width", WIDTHS)
def test_all_same_timestamp_is_fifo(width):
    rng = random.Random(99)
    ops = random_ops(rng, 200, same_time=True)
    assert replay(CalendarEventQueue(width), list(ops)) == replay(
        ModelQueue(), list(ops)
    )
    # Push-everything-then-drain: with one timestamp the order reduces
    # to (priority, seq) — URGENT first, FIFO within each class.
    queue = CalendarEventQueue(width)
    items = [op[1] for op in ops if op[0] == "push"]
    for item in items:
        queue.push(item)
    assert [queue.pop() for _ in range(len(items))] == sorted(items)


@pytest.mark.parametrize("seed", range(10))
def test_adaptive_resize_matches_model_and_is_deterministic(seed):
    rng = random.Random(seed)
    ops = random_ops(rng, 400)
    # Tiny knobs so several resizes actually trigger inside 400 ops.
    make = lambda: CalendarEventQueue(0.0, target_occupancy=4, resize_interval=8)
    first = replay(make(), list(ops))
    assert first == replay(ModelQueue(), list(ops))
    second = replay(make(), list(ops))
    assert first == second  # resize decisions are pure functions of the ops


def test_fifo_ties_survive_a_resize():
    """Same-timestamp runs must stay in seq order when the width moves."""
    queue = CalendarEventQueue(0.0, target_occupancy=2, resize_interval=2)
    # Bursts at identical timestamps, interleaved with spread to force
    # occupancy estimates (and therefore redistribution) in between.
    items = []
    seq = 0
    for stamp in (1.0, 1.0, 5.0, 5.0, 5.0, 9.0, 9.0, 13.0, 13.0, 13.0):
        seq += 1
        items.append((stamp, 1, seq, None))
    for item in items:
        queue.push(item)
    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == sorted(items)


def test_far_future_and_infinity_parking():
    queue = CalendarEventQueue(1.0)
    inf = float("inf")
    queue.push((inf, 1, 1, "end-a"))
    queue.push((2.0, 1, 2, "soon"))
    queue.push((inf, 1, 3, "end-b"))
    queue.push((1e15, 1, 4, "far"))
    assert len(queue) == 4
    assert queue.peek_time() == 2.0
    assert [queue.pop()[3] for _ in range(4)] == ["soon", "far", "end-a", "end-b"]
    assert not queue
    with pytest.raises(IndexError):
        queue.pop()


def test_peek_time_tracks_head_across_structures():
    queue = CalendarEventQueue(1.0)
    assert queue.peek_time() == float("inf")
    queue.push((7.5, 1, 1, None))
    assert queue.peek_time() == 7.5
    queue.push((3.25, 1, 2, None))
    assert queue.peek_time() == 3.25
    assert queue.pop()[0] == 3.25
    # 7.5's slot is now active; a push behind it lands in _extra and
    # must still win peek/pop.
    queue.push((7.25, 0, 3, None))
    assert queue.peek_time() == 7.25
    assert queue.pop()[0] == 7.25
    assert queue.pop()[0] == 7.5


def test_len_counts_every_structure():
    queue = CalendarEventQueue(1.0)
    queue.push((float("inf"), 1, 1, None))  # _far
    queue.push((5.0, 1, 2, None))  # bucket
    queue.push((6.0, 1, 3, None))  # another bucket
    assert len(queue) == 3
    queue.pop()  # activates 5.0's bucket
    queue.push((5.2, 1, 4, None))  # lands in _extra (at/behind active slot)
    assert len(queue) == 3
    assert bool(queue)


def test_cancel_while_bucketed():
    """Interrupting a process parked on a far-future bucketed timeout.

    The URGENT interrupt delivery lands at ``now`` — at/behind the
    active slot — while the original timeout stays bucketed far ahead;
    the kernel must resume the victim immediately and the stale timeout
    must still pop (as a no-op) in order.
    """
    env = calendar_environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(1e6)
            log.append("slept-forever")
        except Interrupt as interrupt:
            log.append(("cancelled", env.now, interrupt.cause))

    def canceller(env, target):
        yield env.timeout(3.0)
        target.interrupt(cause="too-slow")

    target = env.process(victim(env))
    env.process(canceller(env, target))
    env.run()
    assert log == [("cancelled", 3.0, "too-slow")]
    assert target.processed and target.ok
    # The orphaned far-future timeout still drains through the queue.
    assert env.now >= 1e6


def test_constructor_rejects_bad_widths():
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            CalendarEventQueue(bad)
