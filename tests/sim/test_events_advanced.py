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
