"""Additional kernel coverage: event edge cases and condition events."""

import pytest

from repro.sim import Environment, EventLifecycleError


class TestEventStates:
    def test_initial_state(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_is_error(self):
        env = Environment()
        with pytest.raises(EventLifecycleError):
            _ = env.event().value

    def test_triggered_before_processed(self):
        env = Environment()
        event = env.event()
        event.succeed("x")
        assert event.triggered
        assert not event.processed
        env.run()
        assert event.processed
        assert event.value == "x"

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_after_succeed_is_error(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(EventLifecycleError):
            event.fail(RuntimeError())

    def test_defused_failure_does_not_crash(self):
        env = Environment()
        event = env.event()

        def handler(env):
            try:
                yield event
            except RuntimeError:
                pass

        env.process(handler(env))
        event.fail(RuntimeError("handled elsewhere"))
        env.run()  # delivery into the process defused it: must not raise


class TestConditionEdgeCases:
    def test_any_of_empty_fires_immediately(self):
        env = Environment()
        condition = env.any_of([])
        assert condition.triggered
        assert condition.value == {}

    def test_any_of_failure_propagates(self):
        env = Environment()

        class Boom(Exception):
            pass

        caught = []

        def proc(env):
            failing = env.event()
            failing.fail(Boom())
            try:
                yield env.any_of([failing, env.timeout(10)])
            except Boom:
                caught.append(env.now)

        env.process(proc(env))
        env.run()
        assert caught == [0.0]

    def test_multiple_waiters_one_event(self):
        env = Environment()
        event = env.event()
        woken = []

        def waiter(env, tag):
            value = yield event
            woken.append((tag, value))

        for tag in "abc":
            env.process(waiter(env, tag))

        def firer(env):
            yield env.timeout(2)
            event.succeed("go")

        env.process(firer(env))
        env.run()
        assert woken == [("a", "go"), ("b", "go"), ("c", "go")]


class TestFiredConditionDetaches:
    """A fired ``any_of`` takes its callback off the events that did not
    fire, so a long-lived event raced many times holds no finished race
    (a member's outage event against every session's playback)."""

    RACES = 1_000

    def test_timer_wins_leave_nothing_on_the_loser(self):
        env = Environment()
        never = env.event()
        wins = []

        def racer(env):
            for _ in range(self.RACES):
                timer = env.timeout(0.5)
                fired = yield env.any_of([timer, never])
                wins.append(timer in fired)
                assert never.callbacks == []

        env.process(racer(env))
        env.run()
        assert wins == [True] * self.RACES
        assert never.callbacks == []

    def test_failures_leave_nothing_on_the_loser(self):
        env = Environment()
        never = env.event()

        class Boom(Exception):
            pass

        def failer(env):
            yield env.timeout(0.5)
            raise Boom()

        caught = []

        def racer(env):
            for _ in range(self.RACES):
                try:
                    yield env.any_of([never, env.process(failer(env))])
                except Boom:
                    caught.append(env.now)
                assert never.callbacks == []

        env.process(racer(env))
        env.run()
        assert len(caught) == self.RACES
        assert never.callbacks == []

    def test_already_processed_member_attaches_nothing(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        env.run()
        never = env.event()
        condition = env.any_of([never, done, never])
        assert condition.triggered
        assert never.callbacks == []
        env.run()
        assert condition.value == {done: "early"}

    def test_repeated_loser_is_detached_each_time(self):
        env = Environment()
        never = env.event()
        timer = env.timeout(1)
        env.any_of([never, timer, never])
        assert len(never.callbacks) == 2
        env.run()
        assert never.callbacks == []

    def test_live_race_keeps_its_callback_and_still_fires(self):
        env = Environment()
        shared = env.event()
        outcomes = []

        def racer(env, delay):
            fired = yield env.any_of([env.timeout(delay), shared])
            outcomes.append((env.now, shared in fired))

        env.process(racer(env, 1))
        env.process(racer(env, 10))

        def firer(env):
            yield env.timeout(2)
            assert len(shared.callbacks) == 1  # the live race's only
            shared.succeed()

        env.process(firer(env))
        env.run()
        assert outcomes == [(1, False), (2, True)]


class TestProcessEdgeCases:
    def test_nested_process_chains(self):
        env = Environment()

        def leaf(env):
            yield env.timeout(1)
            return "leaf"

        def middle(env):
            value = yield env.process(leaf(env))
            return value + "+middle"

        def root(env, out):
            value = yield env.process(middle(env))
            out.append(value)

        out = []
        env.process(root(env, out))
        env.run()
        assert out == ["leaf+middle"]

    def test_process_name_from_generator(self):
        env = Environment()

        def my_activity(env):
            yield env.timeout(1)

        proc = env.process(my_activity(env))
        assert proc.name == "my_activity"
        named = env.process(my_activity(env), name="custom")
        assert named.name == "custom"
        env.run()
