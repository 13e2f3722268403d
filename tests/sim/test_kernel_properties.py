"""Property-based randomized stress tests for the simulation kernel.

Seeded ``random.Random`` (stdlib only — no hypothesis dependency)
drives the shared generators in ``tests/sim/harness.py`` — random
process graphs of timeouts, shared events, child joins, ``any_of``
races and failure delivery — and asserts the kernel's structural invariants on every
scheduler of the harness matrix (the heap kernel and the calendar-queue
oracle at every bucket width):

* the clock never goes backwards;
* ties on (time, priority) fire in insertion-sequence (FIFO) order;
* every callback of every processed event runs exactly once, and
  callbacks of never-triggered events never run;
* ``events_processed`` equals queue pops (pushes minus still-queued).

Any violation prints the offending seed, so failures reproduce exactly.
"""

import random

import pytest

from repro.sim import Environment

from tests.sim.harness import BACKEND_NAMES, build_random_graph, make_env

SEEDS = range(20)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_invariants(seed, backend):
    rng = random.Random(seed)
    env = make_env(backend)
    clock_log: list = []
    probed = build_random_graph(env, rng, clock_log)
    env.run()

    # Clock monotonicity, as observed by every watched callback.
    assert clock_log == sorted(clock_log), (
        f"clock went backwards (seed {seed}, backend {backend})"
    )

    # No callback lost or doubled.
    for event, probe in probed:
        if event.processed:
            assert probe.calls == 1, (
                f"callback ran {probe.calls}x (seed {seed}, backend {backend})"
            )
        else:
            assert probe.calls == 0, (
                f"callback of pending event ran (seed {seed}, backend {backend})"
            )

    # Conservation: every push is either popped (counted) or still queued.
    assert env.events_processed == env._seq - len(env._queue), (
        f"events_processed {env.events_processed} != pops "
        f"{env._seq - len(env._queue)} (seed {seed}, backend {backend})"
    )
    assert env.events_processed > 0


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("seed", range(8))
def test_same_seed_same_execution(seed, backend):
    """The randomized graph itself must replay bit-identically."""

    def one_run():
        rng = random.Random(seed)
        env = make_env(backend)
        clock_log: list = []
        build_random_graph(env, rng, clock_log)
        env.run()
        return clock_log, env.now, env.events_processed

    assert one_run() == one_run()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fifo_tie_break_order_exhaustive(backend):
    """Hundreds of same-timestamp timeouts fire strictly in creation order."""
    env = make_env(backend)
    fired = []
    for index in range(300):
        timeout = env.timeout(1.0)
        timeout.callbacks.append(lambda event, index=index: fired.append(index))
    env.run()
    assert fired == list(range(300))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_urgent_beats_normal_at_same_timestamp(backend):
    """An immediate resume (URGENT) preempts same-time NORMAL events."""
    env = make_env(backend)
    done = env.event().succeed("done")
    env.run()  # *done* is processed before anyone waits on it
    order = []

    def rewaiter(env):
        yield env.timeout(1)
        yield done  # already processed: resumed by an URGENT event
        order.append("urgent")

    def normal_guy(env):
        yield env.timeout(1)
        order.append("normal")

    env.process(rewaiter(env))
    env.process(normal_guy(env))  # its t=1 timeout has the earlier seq
    env.run()
    # The immediate resume is pushed at t=1 after normal_guy's timeout,
    # but its URGENT priority overtakes that NORMAL event.
    assert order == ["urgent", "normal"]


def test_events_processed_matches_step_count():
    """run() and step() agree on the work measure."""
    def ticking(env):
        for _ in range(5):
            yield env.timeout(1)

    env_run = Environment()
    env_run.process(ticking(env_run))
    env_run.run()

    env_step = Environment()
    env_step.process(ticking(env_step))
    steps = 0
    while env_step.peek() != float("inf"):
        env_step.step()
        steps += 1
    assert env_run.events_processed == env_step.events_processed == steps
