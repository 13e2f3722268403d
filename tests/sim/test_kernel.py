"""Unit tests for the discrete-event kernel: events, processes, run loop."""

import pytest

from repro.sim import (
    Environment,
    EventLifecycleError,
    SimError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    observed = []

    def proc(env):
        yield env.timeout(3.5)
        observed.append(env.now)

    env.process(proc(env))
    env.run()
    assert observed == [3.5]


def test_timeouts_fire_in_time_order():
    env = Environment()
    order = []

    def sleeper(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(sleeper(env, 5, "c"))
    env.process(sleeper(env, 1, "a"))
    env.process(sleeper(env, 3, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_ties_break_in_creation_order():
    env = Environment()
    order = []

    def sleeper(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(sleeper(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_event_returns_value():
    env = Environment()

    def producer(env, done):
        yield env.timeout(2)
        done.succeed("payload")

    done = env.event()
    env.process(producer(env, done))
    assert env.run(until=done) == "payload"
    assert env.now == 2


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_process_return_value_propagates():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env, results):
        value = yield env.process(child(env))
        results.append(value)

    results = []
    env.process(parent(env, results))
    env.run()
    assert results == [42]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env, results):
        proc = env.process(child(env))
        yield env.timeout(5)
        assert not proc.is_alive
        value = yield proc
        results.append((env.now, value))

    results = []
    env.process(parent(env, results))
    env.run()
    assert results == [(5.0, "done")]


def test_event_succeed_twice_is_error():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(EventLifecycleError):
        event.succeed(2)


def test_event_fail_delivers_exception_to_waiter():
    env = Environment()

    class Boom(Exception):
        pass

    def failer(env, event):
        yield env.timeout(1)
        event.fail(Boom("bad"))

    def waiter(env, event, caught):
        try:
            yield event
        except Boom as exc:
            caught.append(str(exc))

    event = env.event()
    caught = []
    env.process(failer(env, event))
    env.process(waiter(env, event, caught))
    env.run()
    assert caught == ["bad"]


def test_unhandled_failed_event_crashes_run():
    env = Environment()

    class Boom(Exception):
        pass

    event = env.event()
    event.fail(Boom())
    with pytest.raises(Boom):
        env.run()


def test_process_exception_propagates_to_parent():
    env = Environment()

    class Boom(Exception):
        pass

    def child(env):
        yield env.timeout(1)
        raise Boom()

    def parent(env, caught):
        try:
            yield env.process(child(env))
        except Boom:
            caught.append(True)

    caught = []
    env.process(parent(env, caught))
    env.run()
    assert caught == [True]


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    with pytest.raises(SimError):
        env.run(until=proc)


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def waiter(env):
        t_fast = env.timeout(1, value="fast")
        t_slow = env.timeout(10, value="slow")
        fired = yield env.any_of([t_fast, t_slow])
        results.append((env.now, list(fired.values())))

    env.process(waiter(env))
    env.run()
    assert results == [(1.0, ["fast"])]


def test_stop_simulation_from_callback():
    env = Environment()

    def stopper(env):
        yield env.timeout(4)
        env.stop("halted")

    env.process(stopper(env))
    assert env.run() == "halted"
    assert env.now == 4


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_step_on_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimError):
        env.step()


def test_deterministic_two_identical_runs():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, tag, delays):
            for delay in delays:
                yield env.timeout(delay)
                trace.append((env.now, tag))

        env.process(worker(env, "a", [1, 2, 3]))
        env.process(worker(env, "b", [2, 2, 2]))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
